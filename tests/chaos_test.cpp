// Seeded chaos tier: the randomized DSM workload (disjoint word writes +
// lock-protected counter increments + barriers) runs once fault-free and once
// under a deterministic FaultPlan; the final pool contents must be identical
// byte-for-byte, with nonzero injected-fault and retry counters proving the
// faults actually happened and the retry machinery absorbed them. The
// runtime's MP collectives and the conventional critical section run under
// the same seeded plans and must give exact results. A partition that never heals must abort with a diagnosis
// that names the silent exchange.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "dsm/cluster.hpp"
#include "net/fault.hpp"
#include "obs/registry.hpp"
#include "runtime/api.hpp"
#include "runtime/cluster.hpp"

namespace parade::dsm {
namespace {

constexpr int kNodes = 3;
constexpr int kDataPages = 4;
constexpr int kEpochs = 3;
constexpr int kIncrementsPerEpoch = 4;
constexpr std::size_t kPageBytes = 4096;

struct RunResult {
  std::vector<std::uint64_t> memory;   ///< final data words + counter word
  std::int64_t injected = 0;           ///< sum of net.fault.injected
  std::int64_t dropped = 0;            ///< drops + partition drops
  std::int64_t partition_dropped = 0;  ///< partition drops alone
  std::int64_t dsm_retries = 0;        ///< sum of dsm.retry.count
};

struct Write {
  std::size_t word;
  std::uint64_t value;
  int writer;
};

// The write plan is a pure function of its own seed so the faulty and
// fault-free runs execute the identical program.
std::vector<std::vector<Write>> make_plan(std::size_t words) {
  std::mt19937_64 rng(42);
  std::vector<std::vector<Write>> plan(kEpochs);
  for (auto& epoch_writes : plan) {
    const int count = static_cast<int>(rng() % 120) + 40;
    std::set<std::size_t> used;  // per-epoch disjoint words: race-free program
    for (int w = 0; w < count; ++w) {
      const std::size_t word = rng() % words;
      if (!used.insert(word).second) continue;
      epoch_writes.push_back(
          Write{word, rng(), static_cast<int>(rng() % kNodes)});
    }
  }
  return plan;
}

DsmConfig chaos_config() {
  DsmConfig config;
  config.pool_bytes = (kDataPages + 2) * kPageBytes;
  // Chaos-friendly retry knobs: short timeouts so dropped messages recover
  // quickly, a deep attempt budget so partitions can ride out their window.
  config.retry.timeout_ms = 50;
  config.retry.max_attempts = 400;
  return config;
}

// An inert `faults` plan runs the fault-free baseline.
RunResult run_workload(const DsmConfig& config, const net::FaultPlan& faults) {
  const std::size_t words =
      kDataPages * kPageBytes / sizeof(std::uint64_t);
  const auto plan = make_plan(words);
  DsmCluster cluster(Topology::cluster(kNodes), config, faults);

  RunResult result;
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    auto* data = static_cast<std::uint64_t*>(
        node.shmalloc(words * sizeof(std::uint64_t), kPageBytes));
    auto* counter = static_cast<std::uint64_t*>(
        node.shmalloc(sizeof(std::uint64_t), kPageBytes));
    node.barrier();

    std::vector<std::uint64_t> golden(words, 0);
    for (const auto& epoch_writes : plan) {
      for (const Write& w : epoch_writes) {
        golden[w.word] = w.value;
        if (w.writer == rank) data[w.word] = w.value;
      }
      // Conventional-SDSM critical sections riding the same interval.
      for (int i = 0; i < kIncrementsPerEpoch; ++i) {
        node.lock_acquire(1);
        *counter = *counter + 1;
        node.lock_release(1);
      }
      node.barrier();
      for (std::size_t i = 0; i < words; ++i) {
        ASSERT_EQ(data[i], golden[i]) << "rank " << rank << " word " << i;
      }
      node.barrier();
    }

    if (rank == 0) {
      result.memory.assign(data, data + words);
      result.memory.push_back(*counter);
    }
  });

  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < kNodes; ++n) {
    result.injected += reg.counter(n, "net.fault.injected").value();
    result.dropped += reg.counter(n, "net.fault.dropped").value();
    result.partition_dropped +=
        reg.counter(n, "net.fault.partition_dropped").value();
    result.dsm_retries += reg.counter(n, "dsm.retry.count").value();
  }
  result.dropped += result.partition_dropped;
  cluster.shutdown();
  return result;
}

class ChaosAtSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosAtSeed, FinalMemoryMatchesFaultFreeRun) {
  const RunResult baseline = run_workload(chaos_config(), net::FaultPlan{});
  ASSERT_FALSE(baseline.memory.empty());
  // Fault-free runs must be exact: no injector in the stack, no spurious
  // retransmissions (the retry counters are the proof).
  EXPECT_EQ(baseline.injected, 0);
  EXPECT_EQ(baseline.dsm_retries, 0);
  const std::uint64_t expected_count =
      static_cast<std::uint64_t>(kNodes) * kEpochs * kIncrementsPerEpoch;
  EXPECT_EQ(baseline.memory.back(), expected_count);

  const RunResult chaotic =
      run_workload(chaos_config(), net::default_chaos_plan(GetParam()));
  ASSERT_EQ(chaotic.memory.size(), baseline.memory.size());
  EXPECT_EQ(chaotic.memory, baseline.memory)
      << "chaos run diverged from the fault-free run";
  EXPECT_GT(chaotic.injected, 0) << "the fault plan never fired";
  if (chaotic.dropped > 0) {
    EXPECT_GT(chaotic.dsm_retries, 0)
        << "messages were dropped but nothing retried";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosAtSeed,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// A message-count-keyed partition window between node 0 and node 1 that heals
// mid-run: the retry loops must carry the protocol across the outage (each
// retransmission advances the link counter toward the heal point).
TEST(Chaos, HealingPartitionRecovers) {
  const RunResult baseline = run_workload(chaos_config(), net::FaultPlan{});

  net::FaultPlan faults;
  faults.seed = 99;
  faults.partitions.push_back(net::PartitionEvent{0, 1, 30, 90, false});
  const RunResult healed = run_workload(chaos_config(), faults);

  EXPECT_EQ(healed.memory, baseline.memory);
  EXPECT_GT(healed.partition_dropped, 0)
      << "the partition window never engaged";
  EXPECT_GT(healed.dsm_retries, 0);
}

// A partition that never heals spends the barrier's whole retry budget. The
// abort must name the exchange that went silent, the peer and the epoch.
TEST(ChaosDeathTest, PermanentPartitionAbortsWithDiagnosis) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DsmConfig config = chaos_config();
  config.retry = net::RetryPolicy{10, 3};
  net::FaultPlan faults;
  faults.partitions.push_back(net::PartitionEvent{0, 1, 0, std::nullopt});
  EXPECT_DEATH(
      {
        DsmCluster cluster(Topology::cluster(kNodes), config, faults);
        cluster.run([&](NodeId rank) { cluster.node(rank).barrier(); });
      },
      "node [0-9]: no barrier [a-z]+ from [a-z]+ node [0-9][^:]* at epoch 0 "
      "within 3 retry timeouts of 10 ms");
}

// The runtime's collectives under the same plans: team_update, single_small
// and team_allreduce ride the node's MP communicator, and every round ends in
// a global barrier as OpenMP's implied barriers do. A node therefore sits in
// the DSM barrier while a peer may still wait for the ack of the round's last
// collective message.
class RuntimeChaosAtSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeChaosAtSeed, CollectivesGiveExactResults) {
  constexpr int kRuntimeNodes = 4;
  constexpr int kThreads = 2;
  constexpr int kRounds = 50;
  constexpr long kThreadIdSum =
      kRuntimeNodes * kThreads * (kRuntimeNodes * kThreads + 1) / 2;
  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < kRuntimeNodes; ++n) reg.reset_node(n);

  RuntimeConfig config;
  config.nodes = kRuntimeNodes;
  config.threads_per_node = kThreads;
  config.dsm.pool_bytes = 1 << 20;
  config.dsm.retry.timeout_ms = 30;
  config.dsm.retry.max_attempts = 400;
  // VirtualCluster takes its fault plan from the environment: the seed alone
  // selects default_chaos_plan(seed).
  setenv("PARADE_FAULT_SEED", std::to_string(GetParam()).c_str(), 1);
  VirtualCluster cluster(config);
  unsetenv("PARADE_FAULT_SEED");

  std::atomic<int> wrong{0};
  cluster.exec([&] {
    double updated = 0.0;  // node-shared replica
    parallel([&] {
      for (int round = 0; round < kRounds; ++round) {
        team_update(&updated, 1.0, mp::Op::kSum);
        if (updated != kRuntimeNodes * kThreads * (round + 1.0)) ++wrong;
        double picked = -1.0;
        single_small(&picked, sizeof(picked), [&] { picked = round + 0.5; });
        if (picked != round + 0.5) ++wrong;
        if (team_reduce<long>(thread_id() + 1, mp::Op::kSum) != kThreadIdSum) {
          ++wrong;
        }
        barrier();
      }
    });
  });

  std::int64_t injected = 0;
  std::int64_t mp_retries = 0;
  for (NodeId n = 0; n < kRuntimeNodes; ++n) {
    injected += reg.counter(n, "net.fault.injected").value();
    mp_retries += reg.counter(n, "mp.retry.count").value();
  }
  cluster.shutdown();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(injected, 0) << "the fault plan never fired";
  EXPECT_GT(mp_retries, 0) << "no collective message was ever retransmitted";
}

// The conventional critical section under the same plans. A lossy channel
// keeps the acked, retransmitted lock release (a fault-free channel sends
// none), so the shared sum stays exact and release acks must appear.
TEST_P(RuntimeChaosAtSeed, CriticalConventionalGivesExactSum) {
  constexpr int kRuntimeNodes = 4;
  constexpr int kThreads = 2;
  constexpr int kIncrements = 5;
  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < kRuntimeNodes; ++n) reg.reset_node(n);
  reg.reset_trace();
  reg.set_trace_enabled(true);

  RuntimeConfig config;
  config.nodes = kRuntimeNodes;
  config.threads_per_node = kThreads;
  config.dsm.pool_bytes = 1 << 20;
  config.dsm.retry.timeout_ms = 30;
  config.dsm.retry.max_attempts = 400;
  setenv("PARADE_FAULT_SEED", std::to_string(GetParam()).c_str(), 1);
  VirtualCluster cluster(config);
  unsetenv("PARADE_FAULT_SEED");

  std::atomic<int> wrong{0};
  cluster.exec([&] {
    auto* sum = shmalloc_array<double>(1);
    if (node_id() == 0) *sum = 0.0;
    barrier();
    parallel([&] {
      for (int i = 0; i < kIncrements; ++i) {
        critical_conventional(1, [&] { *sum += 1.0; });
      }
    });
    if (*sum != kRuntimeNodes * kThreads * kIncrements) ++wrong;
  });
  cluster.shutdown();
  reg.set_trace_enabled(false);

  std::int64_t acks = 0;
  for (const obs::TraceEvent& e : reg.trace_events()) {
    if (e.kind == obs::TraceKind::kSend && e.tag >= kTagLockReleaseAckBase &&
        e.tag < kTagLockReleaseAckBase + kMaxDsmLocks) {
      ++acks;
    }
  }
  reg.reset_trace();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(acks, 0) << "no lock release was acked on the lossy channel";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeChaosAtSeed,
                         ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parade::dsm

// Scale-out tier: the k-ary tree barrier at 64 virtual nodes (ISSUE: scale
// to 128 without the flat gather's O(N) root bottleneck). The tree must be a
// pure performance shape — identical memory semantics to the flat barrier at
// every fan-out — while the compacted write-notice streams and the sharded
// home directory keep every epoch's consistency guarantees. The chaos case
// reruns a tree + sharded configuration under seeded fault injection; in a
// PARADE_CHECKED build every rules.hpp decision is re-validated online, and
// the run must finish with dsm.invariant.violations == 0 on every node.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dsm/cluster.hpp"
#include "net/fault.hpp"
#include "obs/registry.hpp"

namespace parade::dsm {
namespace {

constexpr int kDataPages = 8;
constexpr int kEpochs = 3;
constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kWordsPerPage = kPageBytes / sizeof(std::uint64_t);

/// The deterministic word each (epoch, writer, page) deposits.
std::uint64_t stamp(int epoch, NodeId writer, int page) {
  return 1 + static_cast<std::uint64_t>(epoch) * 1000003 +
         static_cast<std::uint64_t>(writer) * 97 +
         static_cast<std::uint64_t>(page) * 13;
}

struct ScaleResult {
  std::vector<std::uint64_t> memory;   ///< node 0's final view of the pool
  std::int64_t notices_sent = 0;       ///< sum of dsm.write_notices_sent
  std::int64_t violations = 0;         ///< sum of dsm.invariant.violations
  std::int64_t injected = 0;           ///< sum of net.fault.injected
  std::int64_t migrations = 0;         ///< sum of dsm.home_migrations
};

/// SPMD workload exercising both barrier-notice paths: every node writes its
/// own word of page rank % kDataPages (multi-modifier pages, disjoint words,
/// no migration), and one rotating sole writer owns the last page outright
/// (sole-modifier migration every epoch). After each barrier every node
/// verifies the entire pool against the golden function.
ScaleResult run_scale_workload(int nodes, int fanout, bool sharded,
                               std::optional<net::FaultPlan> faults) {
  DsmConfig config;
  config.pool_bytes = (kDataPages + 2) * kPageBytes;
  config.sharded_homes = sharded;
  config.retry.timeout_ms = 50;
  config.retry.max_attempts = 400;

  const Topology topology = Topology::cluster(nodes, fanout);
  auto cluster = faults.has_value()
                     ? std::make_unique<DsmCluster>(topology, config, *faults)
                     : std::make_unique<DsmCluster>(topology, config);

  ScaleResult result;
  cluster->run([&](NodeId rank) {
    DsmNode& node = cluster->node(rank);
    auto* data = static_cast<std::uint64_t*>(
        node.shmalloc(kDataPages * kPageBytes, kPageBytes));
    auto* hot = static_cast<std::uint64_t*>(
        node.shmalloc(kPageBytes, kPageBytes));
    node.barrier();

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const int my_page = static_cast<int>(rank) % kDataPages;
      data[static_cast<std::size_t>(my_page) * kWordsPerPage + rank] =
          stamp(epoch, rank, my_page);
      const NodeId sole = static_cast<NodeId>(epoch % nodes);
      if (rank == sole) {
        for (std::size_t w = 0; w < 16; ++w) {
          hot[w] = stamp(epoch, rank, kDataPages) + w;
        }
      }
      node.barrier();

      for (NodeId writer = 0; writer < nodes; ++writer) {
        const int page = static_cast<int>(writer) % kDataPages;
        ASSERT_EQ(data[static_cast<std::size_t>(page) * kWordsPerPage + writer],
                  stamp(epoch, writer, page))
            << "rank " << rank << " epoch " << epoch << " writer " << writer;
      }
      for (std::size_t w = 0; w < 16; ++w) {
        ASSERT_EQ(hot[w], stamp(epoch, sole, kDataPages) + w)
            << "rank " << rank << " epoch " << epoch << " hot word " << w;
      }
      node.barrier();
    }

    if (rank == 0) {
      result.memory.assign(data, data + kDataPages * kWordsPerPage);
      result.memory.insert(result.memory.end(), hot, hot + kWordsPerPage);
    }
  });

  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < nodes; ++n) {
    result.notices_sent += reg.counter(n, "dsm.write_notices_sent").value();
    result.violations += reg.counter(n, "dsm.invariant.violations").value();
    result.injected += reg.counter(n, "net.fault.injected").value();
    result.migrations += reg.counter(n, "dsm.home_migrations").value();
  }
  cluster->shutdown();
  return result;
}

TEST(TreeBarrier, SixtyFourNodesTreeMatchesFlat) {
  const ScaleResult flat = run_scale_workload(64, 0, false, std::nullopt);
  ASSERT_FALSE(flat.memory.empty());
  EXPECT_EQ(flat.violations, 0);
  EXPECT_GT(flat.notices_sent, 0);
  EXPECT_GT(flat.migrations, 0) << "the sole-writer page never migrated";

  for (int fanout : {2, 4, 8}) {
    const ScaleResult tree = run_scale_workload(64, fanout, false,
                                                std::nullopt);
    EXPECT_EQ(tree.memory, flat.memory)
        << "tree:" << fanout << " diverged from the flat barrier";
    EXPECT_EQ(tree.violations, 0) << "tree:" << fanout;
    EXPECT_GT(tree.migrations, 0) << "tree:" << fanout;
  }
}

TEST(TreeBarrier, ShardedHomesMatchLegacyDirectory) {
  // The shard only changes *where* pages start, never what the program
  // observes: page p seeds at node p % N with its own protected copy, and
  // migration moves it off the seed shard exactly as it would off node 0.
  const ScaleResult legacy = run_scale_workload(16, 4, false, std::nullopt);
  const ScaleResult sharded = run_scale_workload(16, 4, true, std::nullopt);
  ASSERT_FALSE(legacy.memory.empty());
  EXPECT_EQ(sharded.memory, legacy.memory);
  EXPECT_EQ(sharded.violations, 0);
  EXPECT_GT(sharded.migrations, 0);
}

// Chaos tier (ctest -L tier2-chaos, built with PARADE_CHECKED=ON in CI):
// tree gather/scatter edges under seeded message drops, duplicates, delays,
// and reorders. The retry machinery must converge to the fault-free result
// and the online rule validation must never fire.
TEST(TreeBarrierChaos, CheckedTreeShardedRunSurvivesFaults) {
  const ScaleResult baseline = run_scale_workload(16, 2, true, std::nullopt);
  ASSERT_FALSE(baseline.memory.empty());
  EXPECT_EQ(baseline.injected, 0);

  const ScaleResult chaotic =
      run_scale_workload(16, 2, true, net::default_chaos_plan(7));
  EXPECT_EQ(chaotic.memory, baseline.memory)
      << "chaos run diverged from the fault-free run";
  EXPECT_GT(chaotic.injected, 0) << "the fault plan never fired";
  EXPECT_EQ(chaotic.violations, 0)
      << "rules re-validation fired during the chaos run";
}

}  // namespace
}  // namespace parade::dsm

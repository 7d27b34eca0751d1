// Zero-copy tier: twins in the segment pool's twin view plus span-decoded
// page serves and diffs must leave exactly the memory the program wrote. The
// workload leans on every path the segment pool touches: multi-writer pages
// (concurrent twins diffed into one home frame), a sole-writer page (home
// migration, kept copies written again next epoch), and home-side writes
// next to remote fetches. Every live word is checked against stamp() after
// each barrier, and node 0's final pool is compared with a closed-form
// golden image that also pins every word nobody wrote. The chaos case reruns
// the workload under seeded fault injection; with PARADE_CHECKED the run
// must finish with dsm.invariant.violations == 0 on every node.
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

constexpr int kDataPages = 6;
constexpr int kEpochs = 4;
constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kWordsPerPage = kPageBytes / sizeof(std::uint64_t);

/// The deterministic word each (epoch, writer, page) deposits.
std::uint64_t stamp(int epoch, NodeId writer, int page) {
  return 1 + static_cast<std::uint64_t>(epoch) * 1000003 +
         static_cast<std::uint64_t>(writer) * 97 +
         static_cast<std::uint64_t>(page) * 13;
}

struct ZeroCopyResult {
  std::vector<std::uint64_t> memory;  ///< node 0's final view of the pool
  std::int64_t violations = 0;        ///< sum of dsm.invariant.violations
  std::int64_t injected = 0;          ///< sum of net.fault.injected
  std::int64_t migrations = 0;        ///< sum of dsm.home_migrations
};

/// Node 0's final pool image, derived from the workload's write pattern
/// alone: each data page holds the last epoch's stamp in the words of the
/// ranks that write it, the hot page holds the last sole writer's 16 words,
/// and every other word is still zero.
std::vector<std::uint64_t> golden_memory(int nodes) {
  constexpr int kLast = kEpochs - 1;
  std::vector<std::uint64_t> memory((kDataPages + 1) * kWordsPerPage, 0);
  for (NodeId writer = 0; writer < nodes; ++writer) {
    const int page = static_cast<int>(writer) % kDataPages;
    memory[static_cast<std::size_t>(page) * kWordsPerPage + writer] =
        stamp(kLast, writer, page);
  }
  const NodeId sole = static_cast<NodeId>(kLast % nodes);
  for (std::size_t w = 0; w < 16; ++w) {
    memory[kDataPages * kWordsPerPage + w] = stamp(kLast, sole, kDataPages) + w;
  }
  return memory;
}

/// SPMD workload: every node writes its own word of page rank % kDataPages
/// (multi-modifier pages — concurrent twins of the same home frame, each
/// diff merged while the others are live), a rotating sole writer owns the
/// last page (migration; the kept copy is twinned afresh next epoch), and
/// the home of page 0 rewrites its own word too (home writes while remote
/// fetches are in flight). After each barrier every node verifies the entire
/// pool against the golden function.
ZeroCopyResult run_workload(int nodes, std::optional<net::FaultPlan> faults) {
  DsmConfig config;
  config.pool_bytes = (kDataPages + 2) * kPageBytes;
  config.retry.timeout_ms = 50;
  config.retry.max_attempts = 400;

  const Topology topology = Topology::cluster(nodes);
  auto cluster = faults.has_value()
                     ? std::make_unique<DsmCluster>(topology, config, *faults)
                     : std::make_unique<DsmCluster>(topology, config);

  ZeroCopyResult result;
  cluster->run([&](NodeId rank) {
    DsmNode& node = cluster->node(rank);
    auto* data = static_cast<std::uint64_t*>(
        node.shmalloc(kDataPages * kPageBytes, kPageBytes));
    auto* hot =
        static_cast<std::uint64_t*>(node.shmalloc(kPageBytes, kPageBytes));
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
        ASSERT_EQ(
            data[static_cast<std::size_t>(page) * kWordsPerPage + writer],
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
    result.violations += reg.counter(n, "dsm.invariant.violations").value();
    result.injected += reg.counter(n, "net.fault.injected").value();
    result.migrations += reg.counter(n, "dsm.home_migrations").value();
  }
  cluster->shutdown();
  return result;
}

TEST(ZeroCopy, FinalMemoryMatchesGolden) {
  const ZeroCopyResult zc = run_workload(4, std::nullopt);
  EXPECT_EQ(zc.memory, golden_memory(4));
  EXPECT_EQ(zc.violations, 0);
  EXPECT_GT(zc.migrations, 0) << "the sole-writer page never migrated";
}

TEST(ZeroCopy, LargerClusterMatchesGolden) {
  const ZeroCopyResult zc = run_workload(8, std::nullopt);
  EXPECT_EQ(zc.memory, golden_memory(8));
  EXPECT_EQ(zc.violations, 0);
  EXPECT_GT(zc.migrations, 0);
}

// Chaos tier (ctest -L tier2-chaos, built with PARADE_CHECKED=ON in CI):
// the zero-copy pipeline under seeded message drops, duplicates, delays and
// reorders. Retransmitted serves and diffs arrive late, twice or out of
// order; the sequence gates must keep every stale copy out, converging to
// the golden memory with zero invariant violations.
TEST(ZeroCopyChaos, CheckedZeroCopyRunSurvivesFaults) {
  const ZeroCopyResult chaotic = run_workload(4, net::default_chaos_plan(7));
  EXPECT_EQ(chaotic.memory, golden_memory(4))
      << "chaos run diverged from the golden memory";
  EXPECT_GT(chaotic.injected, 0) << "the fault plan never fired";
  EXPECT_EQ(chaotic.violations, 0)
      << "rules re-validation fired during the chaos run";
}

}  // namespace
}  // namespace parade::dsm

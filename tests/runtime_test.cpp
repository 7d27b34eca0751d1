// OpenMP runtime layer: fork-join, worksharing schedules (property: every
// iteration executed exactly once across the cluster), hybrid sync
// constructs, conventional-SDSM constructs, and the omp_* shims.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/cluster.hpp"
#include "runtime/omp_shim.hpp"

namespace parade {
namespace {

RuntimeConfig config_of(int nodes, int threads) {
  RuntimeConfig config;
  config.nodes = nodes;
  config.threads_per_node = threads;
  config.dsm.pool_bytes = 4 << 20;
  return config;
}

struct ClusterShape {
  int nodes;
  int threads;
};

class RuntimeAtShape : public ::testing::TestWithParam<ClusterShape> {};

TEST_P(RuntimeAtShape, IdentityFunctions) {
  const auto [nodes, threads] = GetParam();
  VirtualCluster cluster(config_of(nodes, threads));
  std::mutex mutex;
  std::set<int> seen_global_ids;
  cluster.exec([&] {
    EXPECT_EQ(num_nodes(), nodes);
    EXPECT_EQ(threads_per_node(), threads);
    EXPECT_EQ(num_threads(), nodes * threads);
    EXPECT_EQ(local_thread_id(), 0);  // serial section: main thread
    parallel([&] {
      std::lock_guard lock(mutex);
      seen_global_ids.insert(thread_id());
    });
  });
  cluster.shutdown();
  EXPECT_EQ(seen_global_ids.size(),
            static_cast<std::size_t>(nodes * threads));
  EXPECT_EQ(*seen_global_ids.begin(), 0);
  EXPECT_EQ(*seen_global_ids.rbegin(), nodes * threads - 1);
}

TEST_P(RuntimeAtShape, StaticScheduleCoversExactlyOnce) {
  const auto [nodes, threads] = GetParam();
  constexpr long kN = 1003;  // deliberately not divisible
  VirtualCluster cluster(config_of(nodes, threads));
  std::mutex mutex;
  std::map<long, int> hits;
  cluster.exec([&] {
    parallel([&] {
      parallel_for(0, kN, [&](long lo, long hi) {
        std::lock_guard lock(mutex);
        for (long i = lo; i < hi; ++i) hits[i] += 1;
      });
    });
  });
  cluster.shutdown();
  // One logical loop across the whole cluster: every iteration exactly once.
  ASSERT_EQ(hits.size(), static_cast<std::size_t>(kN));
  for (const auto& [iter, count] : hits) {
    ASSERT_EQ(count, 1) << "iteration " << iter;
  }
}

TEST_P(RuntimeAtShape, ScheduleKindsCoverIterationSpace) {
  const auto [nodes, threads] = GetParam();
  constexpr long kN = 501;
  for (const Schedule schedule :
       {Schedule{ScheduleKind::kStatic, 0}, Schedule{ScheduleKind::kStaticChunk, 7},
        Schedule{ScheduleKind::kDynamic, 5}, Schedule{ScheduleKind::kGuided, 0}}) {
    VirtualCluster cluster(config_of(nodes, threads));
    std::mutex mutex;
    std::vector<int> hits(kN, 0);
    cluster.exec([&] {
      parallel([&] {
        parallel_for(3, 3 + kN, schedule, [&](long lo, long hi) {
          std::lock_guard lock(mutex);
          for (long i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i - 3)] += 1;
        });
      });
    });
    cluster.shutdown();
    for (long i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
          << "schedule kind " << static_cast<int>(schedule.kind) << " iter "
          << i;
    }
  }
}

TEST_P(RuntimeAtShape, TeamReduceOps) {
  const auto [nodes, threads] = GetParam();
  const int total = nodes * threads;
  VirtualCluster cluster(config_of(nodes, threads));
  cluster.exec([&] {
    parallel([&] {
      const double sum = team_reduce(static_cast<double>(thread_id() + 1),
                                     mp::Op::kSum);
      EXPECT_DOUBLE_EQ(sum, total * (total + 1) / 2.0);
      const std::int64_t mx =
          team_reduce(static_cast<std::int64_t>(thread_id()), mp::Op::kMax);
      EXPECT_EQ(mx, total - 1);
      const std::int64_t mn =
          team_reduce(static_cast<std::int64_t>(thread_id()), mp::Op::kMin);
      EXPECT_EQ(mn, 0);
    });
  });
  cluster.shutdown();
}

TEST_P(RuntimeAtShape, RepeatedReductionsStaySynchronized) {
  const auto [nodes, threads] = GetParam();
  VirtualCluster cluster(config_of(nodes, threads));
  cluster.exec([&] {
    double acc_replica = 0.0;
    parallel([&] {
      for (int round = 0; round < 10; ++round) {
        team_update(&acc_replica, 1.0, mp::Op::kSum);
      }
    });
    EXPECT_DOUBLE_EQ(acc_replica, 10.0 * nodes * threads);
  });
  cluster.shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RuntimeAtShape,
    ::testing::Values(ClusterShape{1, 1}, ClusterShape{1, 3},
                      ClusterShape{2, 1}, ClusterShape{2, 2},
                      ClusterShape{3, 2}, ClusterShape{4, 2}),
    [](const auto& info) {
      return std::to_string(info.param.nodes) + "n" +
             std::to_string(info.param.threads) + "t";
    });

struct SumMax {
  long sum;
  long max;
};

class PhaseAtShape : public ::testing::TestWithParam<ClusterShape> {};

// Every barrier and hybrid collective is one node-local phase whose last
// arriver runs the inter-node step, so the step lands on varying threads.
// Interleave all kinds in one region: results must be exact, and every
// thread of a node must leave each phase with the same clock.
TEST_P(PhaseAtShape, InterleavedCollectivesAndBarriers) {
  constexpr int kCalls = 1000;
  const auto [nodes, threads] = GetParam();
  const long team = nodes * threads;
  VirtualCluster cluster(config_of(nodes, threads));
  std::vector<std::vector<VirtualUs>> clocks(
      static_cast<std::size_t>(nodes),
      std::vector<VirtualUs>(static_cast<std::size_t>(kCalls * threads)));
  std::atomic<int> wrong{0};
  cluster.exec([&] {
    double replica = 0.0;  // node-shared
    std::atomic<int> arrived{0};
    std::vector<VirtualUs>& node_clocks =
        clocks[static_cast<std::size_t>(node_id())];
    parallel([&] {
      std::uint64_t choice = 12345;  // the same sequence on every thread
      int updates = 0;
      int barriers = 0;
      for (int i = 0; i < kCalls; ++i) {
        choice = choice * 6364136223846793005ULL + 1442695040888963407ULL;
        switch ((choice >> 33U) % 5) {
          case 0:
            if (team_reduce<long>(thread_id() + 1, mp::Op::kSum) !=
                team * (team + 1) / 2) {
              ++wrong;
            }
            break;
          case 1:
            team_update(&replica, 1.0, mp::Op::kSum);
            if (replica != static_cast<double>(team) * ++updates) ++wrong;
            break;
          case 2: {
            SumMax v{thread_id(), thread_id()};
            team_allreduce_bytes(&v, sizeof(v),
                                 [](void* inout, const void* in, std::size_t) {
                                   auto* a = static_cast<SumMax*>(inout);
                                   const auto* b = static_cast<const SumMax*>(in);
                                   a->sum += b->sum;
                                   a->max = std::max(a->max, b->max);
                                 });
            if (v.sum != team * (team - 1) / 2 || v.max != team - 1) ++wrong;
            break;
          }
          case 3:
            arrived.fetch_add(1);
            barrier(BarrierScope::kGlobal);
            if (arrived.load() < ++barriers * threads) ++wrong;
            break;
          default:
            arrived.fetch_add(1);
            barrier(BarrierScope::kNode);
            if (arrived.load() < ++barriers * threads) ++wrong;
            break;
        }
        node_clocks[static_cast<std::size_t>(i * threads + local_thread_id())] =
            current_ctx().clock.now();
      }
    });
  });
  cluster.shutdown();
  EXPECT_EQ(wrong.load(), 0);
  for (int n = 0; n < nodes; ++n) {
    const auto& node_clocks = clocks[static_cast<std::size_t>(n)];
    int mismatches = 0;
    for (int i = 0; i < kCalls; ++i) {
      for (int t = 1; t < threads; ++t) {
        const auto at = [&](int thread) {
          return node_clocks[static_cast<std::size_t>(i * threads + thread)];
        };
        if (at(t) != at(0) && mismatches++ == 0) {
          ADD_FAILURE() << "node " << n << " call " << i << ": thread " << t
                        << " left at " << at(t) << ", thread 0 at " << at(0);
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PhaseAtShape,
    ::testing::Values(ClusterShape{1, 1}, ClusterShape{1, 2},
                      ClusterShape{1, 4}, ClusterShape{2, 1},
                      ClusterShape{2, 2}, ClusterShape{2, 4},
                      ClusterShape{4, 1}, ClusterShape{4, 2},
                      ClusterShape{4, 4}),
    [](const auto& info) {
      return std::to_string(info.param.nodes) + "n" +
             std::to_string(info.param.threads) + "t";
    });

TEST(Runtime, NestedParallelSerializes) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> inner_runs{0};
  cluster.exec([&] {
    parallel([&] {
      parallel([&] { inner_runs.fetch_add(1); });  // must run inline
    });
  });
  cluster.shutdown();
  EXPECT_EQ(inner_runs.load(), 4);  // once per outer team thread
}

TEST(Runtime, SinglePerEncounterInstance) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> runs{0};
  cluster.exec([&] {
    double v = 0.0;
    parallel([&] {
      for (int i = 0; i < 5; ++i) {
        single_small(&v, sizeof(v), [&] {
          runs.fetch_add(1);
          v = i * 2.0;
        });
        EXPECT_DOUBLE_EQ(v, i * 2.0);
        // Reading v races with the *next* single's executor otherwise (true
        // under OpenMP semantics as well).
        barrier();
      }
    });
  });
  cluster.shutdown();
  EXPECT_EQ(runs.load(), 5);  // once per dynamic encounter, globally
}

TEST(Runtime, SingleAcrossConsecutiveRegions) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> runs{0};
  cluster.exec([&] {
    double v = 0.0;
    for (int region = 0; region < 3; ++region) {
      parallel([&] {
        single_small(&v, sizeof(v), [&] {
          runs.fetch_add(1);
          v = 42.0;
        });
      });
    }
  });
  cluster.shutdown();
  EXPECT_EQ(runs.load(), 3);
}

TEST(Runtime, CriticalConventionalCountsCorrectly) {
  VirtualCluster cluster(config_of(2, 2));
  cluster.exec([&] {
    auto* counter = shmalloc_array<std::int64_t>(1);
    if (node_id() == 0) *counter = 0;
    barrier();
    parallel([&] {
      for (int i = 0; i < 5; ++i) {
        critical_conventional(1, [&] { *counter = *counter + 1; });
      }
    });
    EXPECT_EQ(*counter, 5 * num_threads());
  });
  cluster.shutdown();
}

TEST(Runtime, SingleConventionalExecutesOncePerGeneration) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> runs{0};
  cluster.exec([&] {
    auto* flag = shmalloc_array<std::int64_t>(1);
    if (node_id() == 0) *flag = 0;
    barrier();
    parallel([&] {
      for (int gen = 1; gen <= 4; ++gen) {
        single_conventional(2, flag, gen, [&] { runs.fetch_add(1); });
      }
    });
  });
  cluster.shutdown();
  EXPECT_EQ(runs.load(), 4);
}

// Regression: a fault-path waiter must not sleep through a fetch that
// completed. install_page wakes the waiters with the page READ_ONLY, but a
// sibling thread's lock grant notice can invalidate it again before they
// run. Waiters that insisted on READ_ONLY kept waiting, every retransmitted
// reply was dropped (no fetch outstanding any more), and the node aborted
// with "no page P reply from home node H at epoch E within N retry
// timeouts". The EPCC single loop over
// the conventional (KDSM) single construct hit this within a few hundred
// iterations.
TEST(Runtime, FetchWaitersSeeInvalidationAfterInstall) {
  constexpr int kRounds = 8;
  constexpr long kIterations = 700;
  constexpr int kLock = 3;
  RuntimeConfig config = config_of(2, 2);
  config.cpu_scale = 0.0;
  config.dsm.retry.timeout_ms = 300;
  config.dsm.retry.max_attempts = 5;
  VirtualCluster cluster(config);
  std::atomic<long> wrong{0};
  cluster.exec([&] {
    for (int round = 0; round < kRounds; ++round) {
      auto* flag = shmalloc_array<std::int64_t>(1);
      auto* values = shmalloc_array<double>(kIterations);
      if (node_id() == 0) {
        *flag = 0;
        for (long i = 0; i < kIterations; ++i) values[i] = 0.0;
      }
      barrier();
      parallel([&] {
        // EPCC's delay(): a dab of work between calls.
        double sink = 1.0;
        for (long i = 0; i < kIterations; ++i) {
          for (int k = 0; k < 64; ++k) sink = sink + 1e-9 * k;
          single_conventional(kLock, flag, i + 1,
                              [&] { values[i] = i + 1.0; });
          if (values[i] != i + 1.0) wrong.fetch_add(1);
        }
        EXPECT_GT(sink, 1.0);
      });
    }
  });
  cluster.shutdown();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Runtime, MasterOnlyOnGlobalMaster) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> master_runs{0};
  cluster.exec([&] {
    parallel([&] {
      if (is_master()) master_runs.fetch_add(1);
    });
  });
  cluster.shutdown();
  EXPECT_EQ(master_runs.load(), 1);
}

TEST(Runtime, VirtualTimeMonotoneThroughBarriers) {
  VirtualCluster cluster(config_of(2, 2));
  cluster.exec([&] {
    const VirtualUs t0 = vtime_now();
    barrier();
    const VirtualUs t1 = vtime_now();
    EXPECT_GE(t1, t0);
    parallel([&] {
      const VirtualUs a = vtime_now();
      barrier();
      const VirtualUs b = vtime_now();
      EXPECT_GE(b, a);
    });
  });
  cluster.shutdown();
}

TEST(Runtime, OmpShims) {
  VirtualCluster cluster(config_of(2, 3));
  cluster.exec([&] {
    EXPECT_EQ(ompshim::omp_get_num_threads(), 6);
    EXPECT_EQ(ompshim::omp_in_parallel(), 0);
    parallel([&] {
      EXPECT_EQ(ompshim::omp_in_parallel(), 1);
      EXPECT_GE(ompshim::omp_get_thread_num(), 0);
      EXPECT_LT(ompshim::omp_get_thread_num(), 6);
    });
    EXPECT_GE(ompshim::omp_get_wtime(), 0.0);
  });
  cluster.shutdown();
}

TEST(Runtime, StaticSliceIsPartition) {
  VirtualCluster cluster(config_of(3, 2));
  std::mutex mutex;
  std::vector<std::pair<long, long>> slices;
  cluster.exec([&] {
    parallel([&] {
      long lo, hi;
      static_slice(10, 110, &lo, &hi);
      std::lock_guard lock(mutex);
      slices.emplace_back(lo, hi);
    });
  });
  cluster.shutdown();
  std::sort(slices.begin(), slices.end());
  ASSERT_EQ(slices.size(), 6u);
  EXPECT_EQ(slices.front().first, 10);
  EXPECT_EQ(slices.back().second, 110);
  for (std::size_t i = 1; i < slices.size(); ++i) {
    EXPECT_EQ(slices[i].first, slices[i - 1].second);  // contiguous
  }
}

TEST(Runtime, ProcessModeConfigFromEnv) {
  setenv("PARADE_NODES", "5", 1);
  setenv("PARADE_THREADS", "3", 1);
  setenv("PARADE_HOME_MIGRATION", "0", 1);
  const RuntimeConfig config = runtime_config_from_env();
  EXPECT_EQ(config.nodes, 5);
  EXPECT_EQ(config.threads_per_node, 3);
  EXPECT_FALSE(config.dsm.home_migration);
  unsetenv("PARADE_NODES");
  unsetenv("PARADE_THREADS");
  unsetenv("PARADE_HOME_MIGRATION");
}

}  // namespace
}  // namespace parade

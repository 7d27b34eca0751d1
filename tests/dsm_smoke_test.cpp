// End-to-end smoke tests for the DSM engine: fault-in, write propagation
// through barriers, home migration, and the runtime's hybrid reductions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "dsm/cluster.hpp"
#include "runtime/api.hpp"
#include "runtime/cluster.hpp"

namespace parade {
namespace {

dsm::DsmConfig small_dsm_config() {
  dsm::DsmConfig config;
  config.pool_bytes = 1 << 20;  // 1 MB
  return config;
}

TEST(DsmSmoke, MasterWritesOthersRead) {
  dsm::DsmCluster cluster(Topology::cluster(3), small_dsm_config());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<std::int64_t*>(
        cluster.node(rank).shmalloc(1024 * sizeof(std::int64_t)));
    if (rank == 0) {
      for (int i = 0; i < 1024; ++i) data[i] = i * 7;
    }
    cluster.node(rank).barrier();
    for (int i = 0; i < 1024; ++i) {
      ASSERT_EQ(data[i], i * 7) << "rank " << rank << " index " << i;
    }
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmSmoke, NonMasterWritesPropagate) {
  dsm::DsmCluster cluster(Topology::cluster(2), small_dsm_config());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<double*>(
        cluster.node(rank).shmalloc(512 * sizeof(double)));
    cluster.node(rank).barrier();
    if (rank == 1) {
      for (int i = 0; i < 512; ++i) data[i] = 1.5 * i;
    }
    cluster.node(rank).barrier();
    for (int i = 0; i < 512; ++i) {
      ASSERT_DOUBLE_EQ(data[i], 1.5 * i) << "rank " << rank;
    }
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmSmoke, HomeMigratesToSoleModifier) {
  dsm::DsmCluster cluster(Topology::cluster(2), small_dsm_config());
  cluster.run([&](NodeId rank) {
    auto* data =
        static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    const PageId page =
        static_cast<PageId>(cluster.node(rank).offset_of(data) / 4096);
    EXPECT_EQ(cluster.node(rank).home_of(page), 0);
    cluster.node(rank).barrier();
    if (rank == 1) data[0] = 42;
    cluster.node(rank).barrier();
    EXPECT_EQ(cluster.node(rank).home_of(page), 1);
    EXPECT_EQ(data[0], 42);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmSmoke, InterleavedWritersMergeAtHome) {
  // Two nodes write disjoint halves of the same page between barriers; HLRC
  // must merge both diffs.
  dsm::DsmCluster cluster(Topology::cluster(2), small_dsm_config());
  cluster.run([&](NodeId rank) {
    auto* data =
        static_cast<std::int32_t*>(cluster.node(rank).shmalloc(4096, 4096));
    cluster.node(rank).barrier();
    const int half = 4096 / sizeof(std::int32_t) / 2;
    if (rank == 0) {
      for (int i = 0; i < half; ++i) data[i] = i + 1;
    } else {
      for (int i = half; i < 2 * half; ++i) data[i] = i + 1;
    }
    cluster.node(rank).barrier();
    for (int i = 0; i < 2 * half; ++i) {
      ASSERT_EQ(data[i], i + 1) << "rank " << rank << " i " << i;
    }
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmSmoke, LockProtectedCounter) {
  dsm::DsmCluster cluster(Topology::cluster(4), small_dsm_config());
  constexpr int kIncrementsPerNode = 10;
  cluster.run([&](NodeId rank) {
    auto* counter =
        static_cast<std::int64_t*>(cluster.node(rank).shmalloc(sizeof(std::int64_t)));
    cluster.node(rank).barrier();
    for (int i = 0; i < kIncrementsPerNode; ++i) {
      cluster.node(rank).lock_acquire(3);
      *counter = *counter + 1;
      cluster.node(rank).lock_release(3);
    }
    cluster.node(rank).barrier();
    EXPECT_EQ(*counter, 4 * kIncrementsPerNode) << "rank " << rank;
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(RuntimeSmoke, ParallelForAndReduce) {
  RuntimeConfig config;
  config.nodes = 2;
  config.threads_per_node = 2;
  config.dsm.pool_bytes = 1 << 20;
  VirtualCluster cluster(config);
  std::atomic<int> region_runs{0};
  cluster.exec([&] {
    auto* data = shmalloc_array<double>(1000);
    double sum_replica = 0.0;
    parallel([&] {
      region_runs.fetch_add(1);
      parallel_for(0, 1000, [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) data[i] = static_cast<double>(i);
      });
      double local = 0.0;
      long lo, hi;
      static_slice(0, 1000, &lo, &hi);
      for (long i = lo; i < hi; ++i) local += data[i];
      team_update(&sum_replica, local, mp::Op::kSum);
    });
    EXPECT_DOUBLE_EQ(sum_replica, 999.0 * 1000.0 / 2.0);
  });
  cluster.shutdown();
  EXPECT_EQ(region_runs.load(), 2 * 2);
}

TEST(RuntimeSmoke, SingleExecutesOnceGlobally) {
  RuntimeConfig config;
  config.nodes = 2;
  config.threads_per_node = 2;
  config.dsm.pool_bytes = 1 << 20;
  VirtualCluster cluster(config);
  std::atomic<int> executions{0};
  cluster.exec([&] {
    double value = 0.0;
    parallel([&] {
      single_small(&value, sizeof(value), [&] {
        executions.fetch_add(1);
        value = 12.25;
      });
      EXPECT_DOUBLE_EQ(value, 12.25);
    });
  });
  cluster.shutdown();
  EXPECT_EQ(executions.load(), 1);
}

}  // namespace
}  // namespace parade

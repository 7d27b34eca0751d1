// Multi-node DSM protocol behaviour: caching, invalidation, migration
// policy, lock consistency, multi-threaded fault handling (TRANSIENT /
// BLOCKED), and protocol statistics.
#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "dsm/cluster.hpp"
#include "obs/registry.hpp"

namespace parade::dsm {
namespace {

DsmConfig config_mb(std::size_t mb = 4) {
  DsmConfig config;
  config.pool_bytes = mb << 20;
  return config;
}

TEST(DsmProtocol, ReadCachingAvoidsRefetch) {
  DsmCluster cluster(Topology::cluster(2), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    if (rank == 0) *data = 11;
    cluster.node(rank).barrier();
    // First read faults the page in on node 1...
    EXPECT_EQ(*data, 11);
    const auto after_first = cluster.node(rank).stats().snapshot();
    // ...subsequent reads are local.
    for (int i = 0; i < 100; ++i) EXPECT_EQ(data[0], 11);
    const auto after_many = cluster.node(rank).stats().snapshot();
    EXPECT_EQ(after_first.page_fetches, after_many.page_fetches);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmProtocol, CachedCopySurvivesUnrelatedBarriers) {
  DsmCluster cluster(Topology::cluster(2), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    if (rank == 0) *data = 5;
    cluster.node(rank).barrier();
    EXPECT_EQ(*data, 5);
    const auto before = cluster.node(rank).stats().snapshot();
    // Barriers without writes to this page must not invalidate it.
    cluster.node(rank).barrier();
    cluster.node(rank).barrier();
    EXPECT_EQ(*data, 5);
    const auto after = cluster.node(rank).stats().snapshot();
    EXPECT_EQ(before.page_fetches, after.page_fetches);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmProtocol, RemoteWriteInvalidatesCachedCopy) {
  DsmCluster cluster(Topology::cluster(3), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    if (rank == 0) *data = 1;
    cluster.node(rank).barrier();
    EXPECT_EQ(*data, 1);  // all nodes cache the page
    cluster.node(rank).barrier();
    if (rank == 2) *data = 2;
    cluster.node(rank).barrier();
    EXPECT_EQ(*data, 2);  // invalidation forced a refetch everywhere
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmProtocol, MigrationDisabledKeepsHome) {
  DsmConfig config = config_mb();
  config.home_migration = false;
  DsmCluster cluster(Topology::cluster(2), config);
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    const PageId page =
        static_cast<PageId>(cluster.node(rank).offset_of(data) / 4096);
    cluster.node(rank).barrier();
    if (rank == 1) *data = 7;
    cluster.node(rank).barrier();
    EXPECT_EQ(cluster.node(rank).home_of(page), 0);  // fixed home
    EXPECT_EQ(*data, 7);
    cluster.node(rank).barrier();
  });
  const auto master_stats = cluster.node(0).stats().snapshot();
  EXPECT_EQ(master_stats.home_migrations, 0);
  cluster.shutdown();
}

TEST(DsmProtocol, MultiWriterPageKeepsOldHome) {
  DsmCluster cluster(Topology::cluster(3), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    cluster.node(rank).barrier();
    // Nodes 1 and 2 write disjoint words of the same page.
    if (rank == 1) data[1] = 100;
    if (rank == 2) data[2] = 200;
    cluster.node(rank).barrier();
    const PageId page =
        static_cast<PageId>(cluster.node(rank).offset_of(data) / 4096);
    // Several modifiers: only the old home holds the merged copy, so the
    // home must not move (paper §5.2.2 priority rule).
    EXPECT_EQ(cluster.node(rank).home_of(page), 0);
    EXPECT_EQ(data[1], 100);
    EXPECT_EQ(data[2], 200);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmProtocol, ChainedMigrationFollowsWriter) {
  DsmCluster cluster(Topology::cluster(3), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    const PageId page =
        static_cast<PageId>(cluster.node(rank).offset_of(data) / 4096);
    cluster.node(rank).barrier();
    if (rank == 1) *data = 1;
    cluster.node(rank).barrier();
    EXPECT_EQ(cluster.node(rank).home_of(page), 1);
    // Separate read and write phases with a barrier: a reader racing a
    // writer in the same interval is a data race the protocol need not
    // order (a fast writer's barrier flush updates the home's copy early).
    cluster.node(rank).barrier();
    if (rank == 2) *data = 2;
    cluster.node(rank).barrier();
    EXPECT_EQ(cluster.node(rank).home_of(page), 2);
    EXPECT_EQ(*data, 2);
    cluster.node(rank).barrier();
    if (rank == 0) *data = 3;
    cluster.node(rank).barrier();
    EXPECT_EQ(cluster.node(rank).home_of(page), 0);
    EXPECT_EQ(*data, 3);
    cluster.node(rank).barrier();
  });
  const auto stats = cluster.node(0).stats().snapshot();
  EXPECT_GE(stats.home_migrations, 3);
  cluster.shutdown();
}

TEST(DsmProtocol, ManyPagesManyEpochs) {
  constexpr int kPages = 32;
  constexpr int kEpochs = 8;
  DsmCluster cluster(Topology::cluster(4), config_mb(8));
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<std::int64_t*>(
        cluster.node(rank).shmalloc(kPages * 4096, 4096));
    const int per_page = 4096 / sizeof(std::int64_t);
    cluster.node(rank).barrier();
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      // Round-robin writer per page per epoch.
      for (int p = 0; p < kPages; ++p) {
        if ((p + epoch) % 4 == rank) {
          data[p * per_page + epoch] = epoch * 1000 + p;
        }
      }
      cluster.node(rank).barrier();
      for (int p = 0; p < kPages; ++p) {
        ASSERT_EQ(data[p * per_page + epoch], epoch * 1000 + p)
            << "rank " << rank << " page " << p << " epoch " << epoch;
      }
      cluster.node(rank).barrier();
    }
  });
  cluster.shutdown();
}

TEST(DsmProtocol, LockTransfersProtectedData) {
  // Token passing: each node appends to a shared log under the lock.
  constexpr int kRounds = 3;
  DsmCluster cluster(Topology::cluster(3), config_mb());
  cluster.run([&](NodeId rank) {
    auto* log = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    if (rank == 0) log[0] = 0;  // log[0] = count
    cluster.node(rank).barrier();
    for (int round = 0; round < kRounds; ++round) {
      cluster.node(rank).lock_acquire(5);
      const int count = log[0];
      log[count + 1] = rank * 100 + round;
      log[0] = count + 1;
      cluster.node(rank).lock_release(5);
    }
    cluster.node(rank).barrier();
    EXPECT_EQ(log[0], 3 * kRounds);
    // Every entry must be a valid (rank, round) stamp, each exactly once.
    std::set<int> seen;
    for (int i = 1; i <= log[0]; ++i) seen.insert(log[i]);
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(3 * kRounds));
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

// Lock release is one-way where the channel cannot lose it: a fault-free
// acquire/release pair is acquire, grant and release, with no ack.
TEST(DsmProtocol, LosslessReleaseIsOneWay) {
  DsmCluster cluster(Topology::cluster(2), config_mb());
  auto& reg = obs::Registry::instance();
  std::barrier host(2);  // orders counter reads against both nodes' sends
  std::int64_t sends[3] = {};
  const auto read_sends = [&](NodeId rank, int at) {
    host.arrive_and_wait();
    if (rank == 0) {
      sends[at] = reg.counter(0, "net.send_msgs.dsm").value() +
                  reg.counter(1, "net.send_msgs.dsm").value();
    }
    host.arrive_and_wait();
  };
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    node.barrier();
    read_sends(rank, 0);
    node.barrier();  // an idle barrier measures one barrier's traffic
    read_sends(rank, 1);
    // Node 1 takes lock 2, managed by node 0. The manager handles the
    // release before node 1's next barrier arrival (per-link FIFO).
    if (rank == 1) {
      node.lock_acquire(2);
      node.lock_release(2);
    }
    node.barrier();
    read_sends(rank, 2);
  });
  cluster.shutdown();
  const std::int64_t one_barrier = sends[1] - sends[0];
  EXPECT_EQ(sends[2] - sends[1] - one_barrier, 3);
}

// A lock-protected counter shares its page with an array every node writes
// outside the lock (false sharing in separate 8-byte words). The
// copy dirtied outside the lock must not keep a stale counter, and a
// critical-section store to that already-dirty page takes no fault but must
// still be flushed and noticed.
TEST(DsmProtocol, LockUpdatesSurviveWritesOutsideTheLock) {
  constexpr int kNodes = 3;
  constexpr int kThreads = 2;
  constexpr int kRounds = 40;
  DsmCluster cluster(Topology::cluster(kNodes), config_mb());
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    auto* page = static_cast<std::int64_t*>(node.shmalloc(4096, 4096));
    if (rank == 0) page[0] = 0;  // page[0] = counter, page[1..] = slots
    node.barrier();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          page[1 + (rank * kThreads + t) * kRounds + round] = round + 1;
          node.lock_acquire(3);
          page[0] += 1;
          node.lock_release(3);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    node.barrier();
    EXPECT_EQ(page[0], kNodes * kThreads * kRounds) << "node " << rank;
    for (int slot = 0; slot < kNodes * kThreads * kRounds; ++slot) {
      EXPECT_EQ(page[1 + slot], slot % kRounds + 1) << "slot " << slot;
    }
    node.barrier();
  });
  cluster.shutdown();
}

// Nodes write interleaved 4-byte slots of one page in one interval: slot i
// belongs to node i % kNodes, so every 8-byte word holds two nodes' writes.
// Diffs are 4-byte granular (the sharing granularity), so every write must
// reach the home and every node must read all of them after the barrier.
TEST(DsmProtocol, InterleavedInt32WritesAllReachTheHome) {
  constexpr int kNodes = 3;
  constexpr int kSlots = 4096 / sizeof(std::int32_t);
  DsmCluster cluster(Topology::cluster(kNodes), config_mb());
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    auto* slots = static_cast<std::int32_t*>(node.shmalloc(4096, 4096));
    node.barrier();
    for (int round = 1; round <= 3; ++round) {
      for (int i = rank; i < kSlots; i += kNodes) slots[i] = round * 10000 + i;
      node.barrier();
      int lost = 0;
      for (int i = 0; i < kSlots; ++i) lost += slots[i] != round * 10000 + i;
      EXPECT_EQ(lost, 0) << "node " << rank << " round " << round;
      node.barrier();
    }
  });
  cluster.shutdown();
}

TEST(DsmProtocol, TwoThreadsFaultSamePage) {
  // Exercises TRANSIENT -> BLOCKED: two threads of one node fault the same
  // remote page concurrently; exactly one fetch must happen.
  DsmCluster cluster(Topology::cluster(2), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    if (rank == 0) *data = 77;
    cluster.node(rank).barrier();
    if (rank == 1) {
      std::vector<std::thread> readers;
      for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] { EXPECT_EQ(*data, 77); });
      }
      for (auto& r : readers) r.join();
      EXPECT_EQ(cluster.node(1).stats().snapshot().page_fetches, 1);
    }
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmProtocol, StatsAccounting) {
  DsmCluster cluster(Topology::cluster(2), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    cluster.node(rank).barrier();
    if (rank == 1) *data = 1;  // fetch + twin + diff at the next barrier
    cluster.node(rank).barrier();
    cluster.node(rank).barrier();
  });
  const auto n0 = cluster.node(0).stats().snapshot();
  const auto n1 = cluster.node(1).stats().snapshot();
  EXPECT_EQ(n1.page_fetches, 1);
  EXPECT_EQ(n0.page_serves, 1);
  EXPECT_EQ(n1.twins_created, 1);
  EXPECT_EQ(n1.diffs_created, 1);
  EXPECT_EQ(n0.diffs_applied, 1);
  EXPECT_GT(n1.diff_bytes_sent, 0);
  EXPECT_EQ(n0.barriers, 3);
  EXPECT_EQ(n1.barriers, 3);
  EXPECT_EQ(n1.write_notices_sent, 1);
  cluster.shutdown();
}

TEST(DsmProtocol, SysVMappingCluster) {
  DsmConfig config = config_mb();
  config.map_method = MapMethod::kSysV;
  DsmCluster cluster(Topology::cluster(2), config);
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    if (rank == 0) *data = 31;
    cluster.node(rank).barrier();
    EXPECT_EQ(*data, 31);
    cluster.node(rank).barrier();  // every read of 31 precedes the write
    if (rank == 1) *data = 32;
    cluster.node(rank).barrier();
    EXPECT_EQ(*data, 32);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(DsmProtocol, SoleModifierKeepsCopyWithoutMigration) {
  DsmConfig config = config_mb();
  config.home_migration = false;
  DsmCluster cluster(Topology::cluster(2), config);
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    cluster.node(rank).barrier();
    if (rank == 1) *data = 9;
    cluster.node(rank).barrier();
    const auto before = cluster.node(rank).stats().snapshot();
    EXPECT_EQ(*data, 9);  // sole modifier's copy stayed valid; home merged
    const auto after = cluster.node(rank).stats().snapshot();
    if (rank == 1) {
      EXPECT_EQ(before.page_fetches, after.page_fetches);
    }
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

// Exclusive home pages (rules::home_flush): a home page no peer holds stays
// DIRTY and writable across barriers, so its writes cost one fault in total
// and no write notice.
TEST(DsmProtocol, HomeOnlyWriterStaysExclusive) {
  constexpr int kBarriers = 8;
  DsmCluster cluster(Topology::cluster(2), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    cluster.node(rank).barrier();
    for (int i = 1; i <= kBarriers; ++i) {
      if (rank == 0) data[0] = i;
      cluster.node(rank).barrier();
    }
    if (rank == 1) {
      EXPECT_EQ(data[0], kBarriers);
    }
    cluster.node(rank).barrier();
  });
  const auto n0 = cluster.node(0).stats().snapshot();
  const auto n1 = cluster.node(1).stats().snapshot();
  EXPECT_EQ(n0.write_faults, 1);
  EXPECT_EQ(n0.write_notices_sent, 0);
  EXPECT_EQ(n1.page_fetches, 1);
  EXPECT_EQ(n1.invalidations, 0);
  cluster.shutdown();
}

// A peer's fetch ends exclusivity: the home's next write faults again and
// its notice invalidates the peer's copy at the barrier.
TEST(DsmProtocol, PeerReadEndsExclusiveHomePage) {
  DsmCluster cluster(Topology::cluster(2), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    cluster.node(rank).barrier();
    if (rank == 0) data[0] = 1;  // stays exclusive across the barrier
    cluster.node(rank).barrier();
    if (rank == 1) {
      EXPECT_EQ(data[0], 1);
    }
    cluster.node(rank).barrier();
    if (rank == 0) data[0] = 2;
    cluster.node(rank).barrier();
    EXPECT_EQ(data[0], 2);
    cluster.node(rank).barrier();
  });
  const auto n0 = cluster.node(0).stats().snapshot();
  const auto n1 = cluster.node(1).stats().snapshot();
  EXPECT_EQ(n0.write_faults, 2);
  EXPECT_EQ(n0.write_notices_sent, 1);
  EXPECT_EQ(n1.invalidations, 1);
  EXPECT_EQ(n1.page_fetches, 2);
  cluster.shutdown();
}

// A page that migrates keeps a copy at its old home. The new home must
// count that copy, or its next write would stay exclusive and unnoticed
// while the old home reads a stale page.
TEST(DsmProtocol, MigratedHomeCountsOldHomeCopy) {
  DsmCluster cluster(Topology::cluster(2), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    const PageId page =
        static_cast<PageId>(cluster.node(rank).offset_of(data) / 4096);
    cluster.node(rank).barrier();
    if (rank == 1) data[0] = 1;
    cluster.node(rank).barrier();
    EXPECT_EQ(cluster.node(rank).home_of(page), 1);
    EXPECT_EQ(data[0], 1);  // node 0 reads the copy it kept as old home
    cluster.node(rank).barrier();
    if (rank == 1) data[0] = 2;
    cluster.node(rank).barrier();
    EXPECT_EQ(data[0], 2);
    cluster.node(rank).barrier();
  });
  const auto n0 = cluster.node(0).stats().snapshot();
  const auto n1 = cluster.node(1).stats().snapshot();
  EXPECT_EQ(n0.home_migrations, 1);
  EXPECT_EQ(n1.write_notices_sent, 2);
  EXPECT_EQ(n0.invalidations, 1);
  EXPECT_EQ(n0.page_fetches, 1);
  cluster.shutdown();
}

// With migration vetoed, a remote sole modifier keeps its copy through the
// departure. The home must count that copy, or its next write would stay
// exclusive and unnoticed while the peer reads a stale page.
TEST(DsmProtocol, VetoedSoleModifierCopyIsInvalidatedByHomeWrite) {
  DsmConfig config = config_mb();
  config.home_migration = false;
  DsmCluster cluster(Topology::cluster(2), config);
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    cluster.node(rank).barrier();
    if (rank == 1) data[0] = 5;
    cluster.node(rank).barrier();
    EXPECT_EQ(data[0], 5);  // node 1 reads its kept copy
    cluster.node(rank).barrier();
    if (rank == 0) data[1] = 6;
    cluster.node(rank).barrier();
    EXPECT_EQ(data[0], 5);
    EXPECT_EQ(data[1], 6);
    cluster.node(rank).barrier();
  });
  const auto n0 = cluster.node(0).stats().snapshot();
  const auto n1 = cluster.node(1).stats().snapshot();
  EXPECT_EQ(n0.home_migrations, 0);
  EXPECT_EQ(n0.write_faults, 1);
  EXPECT_EQ(n0.write_notices_sent, 1);
  EXPECT_EQ(n1.invalidations, 1);
  EXPECT_EQ(n1.page_fetches, 2);
  cluster.shutdown();
}

TEST(DsmProtocol, AllocatorAlignmentAndDeterminism) {
  DsmCluster cluster(Topology::cluster(2), config_mb());
  std::size_t offsets[2][3];
  cluster.run([&](NodeId rank) {
    void* a = cluster.node(rank).shmalloc(100);
    void* b = cluster.node(rank).shmalloc(8, 4096);
    void* c = cluster.node(rank).shmalloc(1);
    offsets[rank][0] = cluster.node(rank).offset_of(a);
    offsets[rank][1] = cluster.node(rank).offset_of(b);
    offsets[rank][2] = cluster.node(rank).offset_of(c);
  });
  // SPMD allocation: identical offsets on every node.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(offsets[0][i], offsets[1][i]);
  EXPECT_EQ(offsets[0][1] % 4096, 0u);
  cluster.shutdown();
}

TEST(DsmProtocol, InvariantViolationCounterStaysZero) {
  // Exercise fetch, migration, invalidation, and concurrent faulting, then
  // read back `dsm.invariant.violations`. The counter is registered
  // unconditionally; under PARADE_CHECKED builds every rules.hpp decision is
  // re-checked at runtime and any disagreement would show up here.
  DsmCluster cluster(Topology::cluster(3), config_mb());
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(8192, 4096));
    if (rank == 0) data[0] = 1;
    cluster.node(rank).barrier();
    EXPECT_EQ(data[0], 1);
    cluster.node(rank).barrier();
    if (rank == 1) data[0] = 2;          // sole modifier: home migrates
    if (rank == 2) data[1024] = 3;       // second page, different owner
    cluster.node(rank).barrier();
    EXPECT_EQ(data[0], 2);
    EXPECT_EQ(data[1024], 3);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
  for (NodeId rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(obs::Registry::instance()
                  .counter(rank, "dsm.invariant.violations")
                  .value(),
              0)
        << "rank " << rank;
  }
}

}  // namespace
}  // namespace parade::dsm

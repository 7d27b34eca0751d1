// MP reliable wire under deterministic fault injection: on a lossy channel
// every operation must deliver exactly-once in-order results across drops,
// duplicates and reorders, ride out a partition that heals, and degrade to
// a clean kUnavailable Status naming the silent peer, never a hang, when
// the partition does not heal. The collective algorithms run here at every
// node count under a chaos plan (mp_collectives.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "mp/comm.hpp"
#include "mp_collectives.hpp"
#include "net/fault.hpp"
#include "net/faulty.hpp"
#include "obs/registry.hpp"

namespace parade::mp {
namespace {

CollectiveCase chaos_case(int nodes) {
  return CollectiveCase{nodes, net::default_chaos_plan(11)};
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, CollectivesAtSize,
    ::testing::Values(chaos_case(1), chaos_case(2), chaos_case(3),
                      chaos_case(4), chaos_case(5), chaos_case(7),
                      chaos_case(8)),
    collective_case_name);

TEST(MpFault, P2pDeliversInOrderAcrossDropsAndDups) {
  net::FaultPlan plan;
  plan.seed = 7;
  plan.drop_p = 0.08;
  plan.dup_p = 0.10;
  plan.reorder_p = 0.05;
  constexpr int kMessages = 24;

  run_ranks(2, plan, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (std::uint32_t i = 0; i < kMessages; ++i) {
        ASSERT_TRUE(comm.try_send(1, /*tag=*/7, &i, sizeof(i)).is_ok());
      }
    } else {
      for (std::uint32_t i = 0; i < kMessages; ++i) {
        std::uint32_t got = ~0u;
        RecvStatus status;
        ASSERT_TRUE(
            comm.try_recv(0, /*tag=*/7, &got, sizeof(got), &status).is_ok());
        EXPECT_EQ(got, i) << "duplicate or reordered delivery leaked through";
        EXPECT_EQ(status.source, 0);
        EXPECT_EQ(status.bytes, sizeof(got));
      }
    }
  });
  EXPECT_GT(total_counter(2, "mp.retry.count"), 0)
      << "drops never triggered a retransmit";
}

TEST(MpFault, PartitionThenHealRecovers) {
  net::FaultPlan plan;
  plan.seed = 13;
  // Link-count-keyed outage: messages 4..40 on each 0<->1 link vanish; the
  // retransmissions themselves advance the counter past the heal point.
  plan.partitions.push_back(net::PartitionEvent{0, 1, 4, 40, false});
  constexpr int kMessages = 8;

  run_ranks(2, plan, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (std::uint32_t i = 0; i < kMessages; ++i) {
        ASSERT_TRUE(comm.try_send(1, /*tag=*/3, &i, sizeof(i)).is_ok());
      }
    } else {
      for (std::uint32_t i = 0; i < kMessages; ++i) {
        std::uint32_t got = ~0u;
        ASSERT_TRUE(comm.try_recv(0, /*tag=*/3, &got, sizeof(got)).is_ok());
        EXPECT_EQ(got, i);
      }
    }
  });
  EXPECT_GT(total_counter(2, "mp.retry.count"), 0)
      << "partition never engaged";
}

TEST(MpFault, BcastAcrossHealingPartition) {
  net::FaultPlan plan;
  plan.seed = 17;
  plan.dup_p = 0.10;
  plan.partitions.push_back(net::PartitionEvent{0, 1, 2, 30, false});
  constexpr int kNodes = 3;

  run_ranks(kNodes, plan, [&](Comm& comm) {
    for (int round = 0; round < 4; ++round) {
      std::int64_t value = comm.rank() == 0 ? 77 + round : -1;
      ASSERT_TRUE(comm.try_bcast(&value, sizeof(value), /*root=*/0).is_ok());
      EXPECT_EQ(value, 77 + round);
    }
  });
}

TEST(MpFault, UnhealedPartitionReturnsStatusInsteadOfHanging) {
  net::FaultPlan plan;
  plan.seed = 19;
  plan.partitions.push_back(
      net::PartitionEvent{0, 1, 0, std::nullopt, false});  // never heals

  // Fail fast: the point is the Status, not retry depth.
  const net::RetryPolicy retry{20, 5};

  run_ranks(
      2, plan,
      [&](Comm& comm) {
        const std::string peer = comm.rank() == 0 ? "node 1" : "node 0";
        if (comm.rank() == 0) {
          const std::uint32_t v = 42;
          const Status s = comm.try_send(1, /*tag=*/5, &v, sizeof(v));
          ASSERT_FALSE(s.is_ok());
          EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
          EXPECT_NE(s.message().find(peer), std::string::npos) << s.message();
          EXPECT_NE(s.message().find("seq"), std::string::npos) << s.message();
        } else {
          std::uint32_t got = 0;
          const Status s = comm.try_recv(0, /*tag=*/5, &got, sizeof(got));
          ASSERT_FALSE(s.is_ok());
          EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
          EXPECT_NE(s.message().find(peer), std::string::npos) << s.message();
        }
        // A collective across the dead link must degrade the same way.
        const Status barrier_status = comm.try_barrier();
        ASSERT_FALSE(barrier_status.is_ok());
        EXPECT_EQ(barrier_status.code(), ErrorCode::kUnavailable);
        EXPECT_NE(barrier_status.message().find(peer), std::string::npos)
            << barrier_status.message();
      },
      retry);
}

TEST(MpFault, InertPlanIsPassThrough) {
  // With no faults configured the channel is lossless, so the communicator
  // takes the plain wire: no acks, no retries, and the payload reaches the
  // peer's mailbox byte for byte, with no sequence prefix.
  auto& reg = obs::Registry::instance();
  for (NodeId r = 0; r < 2; ++r) reg.reset_node(r);
  net::FaultyFabric fabric(2, net::FaultPlan{});
  Comm sender(Topology::flat(0, 2), fabric.channel(0), vtime::ideal(),
              test_retry());

  const std::uint64_t v = 0xdeadbeefcafef00dull;
  ASSERT_TRUE(sender.try_send(1, /*tag=*/1, &v, sizeof(v)).is_ok());
  auto wire = fabric.channel(1).inbox().try_recv_match(
      [](const net::MessageHeader& h) { return h.tag == net::kMpTagBase + 1; });
  ASSERT_TRUE(wire.has_value());
  ASSERT_EQ(wire->payload.size(), sizeof(v));
  EXPECT_EQ(std::memcmp(wire->payload.data(), &v, sizeof(v)), 0);
  fabric.shutdown();

  EXPECT_EQ(total_counter(2, "net.send_msgs.ack"), 0);
  EXPECT_EQ(total_counter(2, "mp.retry.count"), 0);
}

}  // namespace
}  // namespace parade::mp

// Message-passing library: point-to-point matching semantics, typed
// reductions, and the collective algorithms at every node count 1..8 over
// the plain wire (mp_collectives.cpp; mp_fault_test runs them under chaos).
#include <gtest/gtest.h>

#include <thread>

#include "mp/comm.hpp"
#include "mp_collectives.hpp"
#include "net/inproc.hpp"

namespace parade::mp {
namespace {

TEST(Datatypes, SizesAndNames) {
  EXPECT_EQ(dtype_size(DType::kInt32), 4u);
  EXPECT_EQ(dtype_size(DType::kDouble), 8u);
  EXPECT_EQ(dtype_size(DType::kByte), 1u);
  EXPECT_STREQ(to_string(Op::kSum), "sum");
}

TEST(Datatypes, ReduceAllOpsInt) {
  auto reduce_one = [](Op op, std::int32_t a, std::int32_t b) {
    std::int32_t inout = a;
    reduce_inplace(DType::kInt32, op, &inout, &b, 1);
    return inout;
  };
  EXPECT_EQ(reduce_one(Op::kSum, 3, 4), 7);
  EXPECT_EQ(reduce_one(Op::kProd, 3, 4), 12);
  EXPECT_EQ(reduce_one(Op::kMin, 3, 4), 3);
  EXPECT_EQ(reduce_one(Op::kMax, 3, 4), 4);
  EXPECT_EQ(reduce_one(Op::kLAnd, 3, 0), 0);
  EXPECT_EQ(reduce_one(Op::kLOr, 0, 4), 1);
  EXPECT_EQ(reduce_one(Op::kBAnd, 0b1100, 0b1010), 0b1000);
  EXPECT_EQ(reduce_one(Op::kBOr, 0b1100, 0b1010), 0b1110);
}

TEST(Datatypes, ReduceVectorized) {
  std::vector<double> a{1, 2, 3};
  const std::vector<double> b{10, 20, 30};
  reduce_inplace(DType::kDouble, Op::kSum, a.data(), b.data(), 3);
  EXPECT_EQ(a, (std::vector<double>{11, 22, 33}));
}

TEST(PointToPoint, TagMatching) {
  run_ranks(2, net::FaultPlan{}, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int a = 1, b = 2;
      comm.send(1, /*tag=*/10, &a, sizeof(a));
      comm.send(1, /*tag=*/20, &b, sizeof(b));
    } else {
      int v = 0;
      // Receive out of order by tag.
      comm.recv(0, 20, &v, sizeof(v));
      EXPECT_EQ(v, 2);
      comm.recv(0, 10, &v, sizeof(v));
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(PointToPoint, Wildcards) {
  run_ranks(3, net::FaultPlan{}, [](Comm& comm) {
    if (comm.rank() != 0) {
      const int v = comm.rank() * 100;
      comm.send(0, 7, &v, sizeof(v));
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        RecvStatus status = comm.recv(kAnyNode, kAnyTag, &v, sizeof(v));
        EXPECT_EQ(status.tag, 7);
        EXPECT_EQ(v, status.source * 100);
        sum += v;
      }
      EXPECT_EQ(sum, 300);
    }
  });
}

TEST(PointToPoint, TryRecv) {
  run_ranks(2, net::FaultPlan{}, [](Comm& comm) {
    // Rank 1 sends only after the first barrier, which rank 0 enters after
    // its empty probe; the second barrier orders the send before the spin.
    if (comm.rank() == 0) {
      EXPECT_FALSE(comm.try_recv_bytes(1, 3).has_value());
      comm.barrier();
      comm.barrier();
      while (!comm.try_recv_bytes(1, 3).has_value()) {
      }
    } else {
      comm.barrier();
      const int v = 5;
      comm.send(0, 3, &v, sizeof(v));
      comm.barrier();
    }
  });
}

CollectiveCase plain_case(int nodes) {
  return CollectiveCase{nodes, net::FaultPlan{}};
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CollectivesAtSize,
    ::testing::Values(plain_case(1), plain_case(2), plain_case(3),
                      plain_case(4), plain_case(5), plain_case(7),
                      plain_case(8)),
    collective_case_name);

TEST(Vtime, MessageCarriesCausality) {
  net::InProcFabric fabric(2);
  Comm c0(Topology::flat(0, 2), fabric.channel(0), vtime::clan_via());
  Comm c1(Topology::flat(1, 2), fabric.channel(1), vtime::clan_via());

  vtime::ThreadClock receiver_clock;

  std::thread sender([&] {
    vtime::ThreadClock sender_clock;  // owned by this thread
    bind_thread_clock(&sender_clock);
    sender_clock.add(1000.0);  // sender is "ahead"
    const int v = 1;
    c0.send(1, 4, &v, sizeof(v));
    bind_thread_clock(nullptr);
  });
  sender.join();

  bind_thread_clock(&receiver_clock);
  int v = 0;
  c1.recv(0, 4, &v, sizeof(v));
  bind_thread_clock(nullptr);
  // Receiver merged the sender's timestamp + transfer time.
  EXPECT_GT(receiver_clock.now(), 1000.0);
  fabric.shutdown();
}

}  // namespace
}  // namespace parade::mp

// Message-passing library: point-to-point matching semantics, typed
// reductions, and the collective algorithms at every node count 1..8
// (parameterized, exercising the binomial trees' edge cases at non-powers
// of two).
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "mp/comm.hpp"
#include "net/inproc.hpp"

namespace parade::mp {
namespace {

vtime::NetworkModel test_model() { return vtime::ideal(); }

/// Runs `body(comm)` on one thread per rank.
void run_ranks(int n, const std::function<void(Comm&)>& body) {
  net::InProcFabric fabric(n);
  std::vector<std::unique_ptr<Comm>> comms;
  for (int r = 0; r < n; ++r) {
    comms.push_back(std::make_unique<Comm>(Topology::flat(r, n),
                                           fabric.channel(r), test_model()));
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] { body(*comms[static_cast<std::size_t>(r)]); });
  }
  for (auto& t : threads) t.join();
  fabric.shutdown();
}

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
  run_ranks(2, [](Comm& comm) {
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
  run_ranks(3, [](Comm& comm) {
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
  run_ranks(2, [](Comm& comm) {
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

class CollectivesAtSize : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesAtSize, Barrier) {
  const int n = GetParam();
  std::atomic<int> arrived{0};
  run_ranks(n, [&](Comm& comm) {
    arrived.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must have arrived.
    EXPECT_EQ(arrived.load(), n);
    comm.barrier();
  });
}

TEST_P(CollectivesAtSize, BcastFromEveryRoot) {
  const int n = GetParam();
  run_ranks(n, [&](Comm& comm) {
    for (int root = 0; root < n; ++root) {
      double payload[3] = {0, 0, 0};
      if (comm.rank() == root) {
        payload[0] = root + 0.5;
        payload[1] = 2.0 * root;
        payload[2] = -1.0;
      }
      comm.bcast(payload, sizeof(payload), root);
      EXPECT_DOUBLE_EQ(payload[0], root + 0.5);
      EXPECT_DOUBLE_EQ(payload[1], 2.0 * root);
      EXPECT_DOUBLE_EQ(payload[2], -1.0);
    }
  });
}

TEST_P(CollectivesAtSize, ReduceSumToEveryRoot) {
  const int n = GetParam();
  run_ranks(n, [&](Comm& comm) {
    for (int root = 0; root < n; ++root) {
      std::int64_t value = comm.rank() + 1;
      comm.reduce(&value, 1, DType::kInt64, Op::kSum, root);
      if (comm.rank() == root) {
        EXPECT_EQ(value, static_cast<std::int64_t>(n) * (n + 1) / 2);
      }
    }
  });
}

TEST_P(CollectivesAtSize, AllreduceMinMax) {
  const int n = GetParam();
  run_ranks(n, [&](Comm& comm) {
    double lo = comm.rank() * 1.5;
    comm.allreduce(&lo, 1, DType::kDouble, Op::kMin);
    EXPECT_DOUBLE_EQ(lo, 0.0);
    double hi = comm.rank() * 1.5;
    comm.allreduce(&hi, 1, DType::kDouble, Op::kMax);
    EXPECT_DOUBLE_EQ(hi, (n - 1) * 1.5);
  });
}

TEST_P(CollectivesAtSize, AllreduceVector) {
  const int n = GetParam();
  run_ranks(n, [&](Comm& comm) {
    std::vector<std::int32_t> values(16);
    for (int i = 0; i < 16; ++i) values[static_cast<std::size_t>(i)] = i;
    comm.allreduce(values.data(), values.size(), DType::kInt32, Op::kSum);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(values[static_cast<std::size_t>(i)], i * n);
    }
  });
}

TEST_P(CollectivesAtSize, AllreduceUserStruct) {
  // The paper's merged multi-variable reduction (§4.2).
  struct Multi {
    double sum;
    double max;
    std::int64_t count;
  };
  const int n = GetParam();
  run_ranks(n, [&](Comm& comm) {
    Multi m{static_cast<double>(comm.rank()), static_cast<double>(comm.rank()),
            1};
    comm.allreduce_user(&m, sizeof(m),
                        [](void* inout, const void* in, std::size_t) {
                          auto* a = static_cast<Multi*>(inout);
                          const auto* b = static_cast<const Multi*>(in);
                          a->sum += b->sum;
                          a->max = std::max(a->max, b->max);
                          a->count += b->count;
                        });
    EXPECT_DOUBLE_EQ(m.sum, n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(m.max, n - 1.0);
    EXPECT_EQ(m.count, n);
  });
}

TEST_P(CollectivesAtSize, GatherAndAllgather) {
  const int n = GetParam();
  run_ranks(n, [&](Comm& comm) {
    const std::int32_t mine = 10 * comm.rank() + 3;
    std::vector<std::int32_t> all(static_cast<std::size_t>(n), -1);
    comm.gather(&mine, sizeof(mine), comm.rank() == 0 ? all.data() : nullptr,
                0);
    if (comm.rank() == 0) {
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], 10 * r + 3);
      }
    }
    std::vector<std::int32_t> everywhere(static_cast<std::size_t>(n), -1);
    comm.allgather(&mine, sizeof(mine), everywhere.data());
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(everywhere[static_cast<std::size_t>(r)], 10 * r + 3);
    }
  });
}

TEST_P(CollectivesAtSize, BackToBackCollectivesDoNotCross) {
  const int n = GetParam();
  run_ranks(n, [&](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      std::int64_t v = round * n + comm.rank();
      comm.allreduce(&v, 1, DType::kInt64, Op::kMax);
      EXPECT_EQ(v, static_cast<std::int64_t>(round) * n + (n - 1));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesAtSize,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

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

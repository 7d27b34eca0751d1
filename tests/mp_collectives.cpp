// Collective algorithms at every node count (parameterized, exercising the
// binomial trees' edge cases at non-powers of two) over the case's fault
// plan. See mp_collectives.hpp.
#include "mp_collectives.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "net/faulty.hpp"
#include "obs/registry.hpp"

namespace parade::mp {

void run_ranks(int n, const net::FaultPlan& plan,
               const std::function<void(Comm&)>& body,
               net::RetryPolicy retry) {
  auto& reg = obs::Registry::instance();
  for (NodeId r = 0; r < n; ++r) reg.reset_node(r);

  net::FaultyFabric fabric(n, plan);
  std::vector<std::unique_ptr<Comm>> comms;
  for (NodeId r = 0; r < n; ++r) {
    comms.push_back(std::make_unique<Comm>(
        Topology::flat(r, n), fabric.channel(r), vtime::ideal(), retry));
  }
  std::vector<std::thread> threads;
  for (NodeId r = 0; r < n; ++r) {
    threads.emplace_back([&, r] { body(*comms[static_cast<std::size_t>(r)]); });
  }
  for (auto& t : threads) t.join();
  fabric.shutdown();
}

std::int64_t total_counter(int n, const std::string& name) {
  auto& reg = obs::Registry::instance();
  std::int64_t total = 0;
  for (NodeId r = 0; r < n; ++r) total += reg.counter(r, name).value();
  return total;
}

void CollectivesAtSize::run(const std::function<void(Comm&)>& body) {
  const CollectiveCase& c = GetParam();
  run_ranks(c.nodes, c.plan, body);
  if (c.nodes == 1) return;
  const std::int64_t acks = total_counter(c.nodes, "net.send_msgs.ack");
  if (c.plan.active()) {
    EXPECT_GT(acks, 0) << "a lossy channel must take the reliable wire";
  } else {
    EXPECT_EQ(acks, 0) << "a lossless channel must take the plain wire";
  }
}

std::string collective_case_name(
    const ::testing::TestParamInfo<CollectiveCase>& info) {
  return "nodes" + std::to_string(info.param.nodes);
}

TEST_P(CollectivesAtSize, Barrier) {
  const int n = nodes();
  std::atomic<int> arrived{0};
  run([&](Comm& comm) {
    arrived.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must have arrived.
    EXPECT_EQ(arrived.load(), n);
    comm.barrier();
  });
}

TEST_P(CollectivesAtSize, BcastFromEveryRoot) {
  const int n = nodes();
  run([&](Comm& comm) {
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
  const int n = nodes();
  run([&](Comm& comm) {
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
  const int n = nodes();
  run([&](Comm& comm) {
    double lo = comm.rank() * 1.5;
    comm.allreduce(&lo, 1, DType::kDouble, Op::kMin);
    EXPECT_DOUBLE_EQ(lo, 0.0);
    double hi = comm.rank() * 1.5;
    comm.allreduce(&hi, 1, DType::kDouble, Op::kMax);
    EXPECT_DOUBLE_EQ(hi, (n - 1) * 1.5);
  });
}

TEST_P(CollectivesAtSize, AllreduceVector) {
  const int n = nodes();
  run([&](Comm& comm) {
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
  const int n = nodes();
  run([&](Comm& comm) {
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
  const int n = nodes();
  run([&](Comm& comm) {
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
  const int n = nodes();
  run([&](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      std::int64_t v = round * n + comm.rank();
      comm.allreduce(&v, 1, DType::kInt64, Op::kMax);
      EXPECT_EQ(v, static_cast<std::int64_t>(round) * n + (n - 1));
    }
  });
}

}  // namespace parade::mp

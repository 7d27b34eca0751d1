// google-benchmark microbenchmarks for the message-passing library:
// in-process ping-pong latency/bandwidth and collective operations at
// several node counts. Wall-clock numbers for the implementation itself.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "mp/comm.hpp"
#include "net/inproc.hpp"
#include "vtime/cost_model.hpp"

namespace parade::mp {
namespace {

void BM_PingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  net::InProcFabric fabric(2);
  Comm comm0(Topology::flat(0, 2), fabric.channel(0), vtime::ideal());
  Comm comm1(Topology::flat(1, 2), fabric.channel(1), vtime::ideal());
  std::vector<std::uint8_t> payload(bytes, 0xAB);

  std::atomic<bool> stop{false};
  std::thread echo([&] {
    std::vector<std::uint8_t> buffer(bytes);
    for (;;) {
      RecvStatus status;
      auto data = comm1.try_recv_bytes(0, 5, &status);
      if (!data) {
        if (stop.load(std::memory_order_relaxed)) return;
        std::this_thread::yield();
        continue;
      }
      comm1.send(0, 6, data->data(), data->size());
    }
  });

  std::vector<std::uint8_t> buffer(bytes);
  for (auto _ : state) {
    comm0.send(1, 5, payload.data(), payload.size());
    comm0.recv(1, 6, buffer.data(), buffer.size());
  }
  stop.store(true);
  echo.join();
  fabric.shutdown();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_PingPong)->Arg(8)->Arg(4096)->Arg(65536);

// 8-byte ping-pong between two blocking ranks while `range(0)` other threads
// per node sit blocked in the same mailboxes on a tag nobody sends. The CPU
// column is the whole process's, so wakeups the bystanders take on every
// delivery show up as CPU per round trip.
void BM_PingPongBesideBlockedReceivers(benchmark::State& state) {
  const int bystanders = static_cast<int>(state.range(0));
  constexpr Tag kPing = 5, kPong = 6;
  constexpr Tag kNobodySends = net::kMpTagBase + 999;
  net::InProcFabric fabric(2);
  Comm comm0(Topology::flat(0, 2), fabric.channel(0), vtime::ideal());
  Comm comm1(Topology::flat(1, 2), fabric.channel(1), vtime::ideal());

  std::vector<std::thread> blocked;
  for (int node = 0; node < 2; ++node) {
    for (int i = 0; i < bystanders; ++i) {
      blocked.emplace_back([&fabric, node] {
        // Returns only when shutdown closes the mailbox.
        auto none = fabric.channel(node).inbox().recv_match(
            [](const net::MessageHeader& h) { return h.tag == kNobodySends; });
        benchmark::DoNotOptimize(none);
      });
    }
  }
  // An empty ping stops the echo.
  std::thread echo([&] {
    for (;;) {
      auto data = comm1.recv_bytes(0, kPing);
      if (data.empty()) return;
      comm1.send(0, kPong, data.data(), data.size());
    }
  });

  std::uint64_t ping = 0;
  std::uint64_t pong = 0;
  for (auto _ : state) {
    ++ping;
    comm0.send(1, kPing, &ping, sizeof(ping));
    comm0.recv(1, kPong, &pong, sizeof(pong));
    benchmark::DoNotOptimize(pong);
  }
  comm0.send(1, kPing, nullptr, 0);
  echo.join();
  fabric.shutdown();
  for (auto& t : blocked) t.join();
}
BENCHMARK(BM_PingPongBesideBlockedReceivers)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

template <typename Body>
void run_ranks(int n, const Body& body) {
  net::InProcFabric fabric(n);
  std::vector<std::unique_ptr<Comm>> comms;
  comms.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    comms.push_back(std::make_unique<Comm>(Topology::flat(r, n),
                                           fabric.channel(r), vtime::ideal()));
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] { body(*comms[static_cast<std::size_t>(r)]); });
  }
  for (auto& t : threads) t.join();
  fabric.shutdown();
}

void BM_Allreduce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run_ranks(n, [](Comm& comm) {
      double value = static_cast<double>(comm.rank());
      comm.allreduce(&value, 1, DType::kDouble, Op::kSum);
      benchmark::DoNotOptimize(value);
    });
  }
}
BENCHMARK(BM_Allreduce)->Arg(2)->Arg(4)->Arg(8);

void BM_Bcast64k(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run_ranks(n, [](Comm& comm) {
      std::vector<std::uint8_t> data(65536, static_cast<std::uint8_t>(1));
      comm.bcast(data.data(), data.size(), 0);
      benchmark::DoNotOptimize(data);
    });
  }
}
BENCHMARK(BM_Bcast64k)->Arg(2)->Arg(8);

void BM_Barrier(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run_ranks(n, [](Comm& comm) { comm.barrier(); });
  }
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(8);

}  // namespace
}  // namespace parade::mp

BENCHMARK_MAIN();

// google-benchmark microbenchmarks for the DSM building blocks: twin
// creation, diff encode/apply, double-mapping protection flips, and the
// fault-handler page-fetch path on a 2-node cluster. These are wall-clock
// numbers (they measure our implementation, not the 2003 hardware model).
#include <benchmark/benchmark.h>

#include <sys/mman.h>

#include <cstring>
#include <random>

#include "dsm/cluster.hpp"
#include "dsm/diff.hpp"
#include "dsm/mapping.hpp"

namespace parade::dsm {
namespace {

void fill_page(std::vector<std::uint8_t>& page, unsigned seed) {
  std::mt19937 rng(seed);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng());
}

void BM_DiffEncode(benchmark::State& state) {
  const std::size_t page_bytes = 4096;
  std::vector<std::uint8_t> twin(page_bytes), current(page_bytes);
  fill_page(twin, 1);
  current = twin;
  // Dirty the requested fraction (percent) of the page in scattered words.
  const long percent = state.range(0);
  std::mt19937 rng(7);
  const std::size_t words = page_bytes / 8;
  for (std::size_t w = 0; w < words * static_cast<std::size_t>(percent) / 100;
       ++w) {
    const std::size_t at = (rng() % words) * 8;
    current[at] ^= 0xFF;
  }
  // The flush path's encoder: runs stream into a wire buffer.
  for (auto _ : state) {
    WireBuffer buffer;
    benchmark::DoNotOptimize(
        append_diff(buffer, current.data(), twin.data(), page_bytes));
    benchmark::DoNotOptimize(buffer.bytes().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DiffEncode)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

void BM_DiffApply(benchmark::State& state) {
  const std::size_t page_bytes = 4096;
  std::vector<std::uint8_t> twin(page_bytes), current(page_bytes);
  fill_page(twin, 1);
  fill_page(current, 2);
  const auto diff = encode_diff(current.data(), twin.data(), page_bytes);
  std::vector<std::uint8_t> target = twin;
  for (auto _ : state) {
    apply_diff(target.data(), page_bytes, diff.data(), diff.size());
    benchmark::DoNotOptimize(target);
  }
}
BENCHMARK(BM_DiffApply);

void BM_TwinCreate(benchmark::State& state) {
  const std::size_t page_bytes = 4096;
  std::vector<std::uint8_t> page(page_bytes);
  fill_page(page, 3);
  for (auto _ : state) {
    std::vector<std::uint8_t> twin(page_bytes);
    std::memcpy(twin.data(), page.data(), page_bytes);
    benchmark::DoNotOptimize(twin);
  }
}
BENCHMARK(BM_TwinCreate);

void BM_ProtectionFlip(benchmark::State& state) {
  auto mapping = SegmentPool::create(1 << 20, 4096, MapMethod::kMemfd);
  if (!mapping.is_ok()) {
    state.SkipWithError("memfd unavailable");
    return;
  }
  auto& m = *std::move(mapping).value();
  std::size_t page = 0;
  for (auto _ : state) {
    (void)m.protect_app(page * 4096, 4096, PROT_READ | PROT_WRITE);
    (void)m.protect_app(page * 4096, 4096, PROT_NONE);
    page = (page + 1) % 256;
  }
}
BENCHMARK(BM_ProtectionFlip);

void BM_RemotePageFetch(benchmark::State& state) {
  DsmConfig config;
  config.pool_bytes = 8 << 20;
  DsmCluster cluster(Topology::cluster(2), config);
  auto* data = static_cast<std::uint8_t*>(cluster.node(0).shmalloc(4 << 20));
  (void)cluster.node(1).shmalloc(4 << 20);  // keep allocators in lockstep
  // Node 0 (home/master) has the data; node 1 faults pages in, then both
  // barrier to invalidate nothing — we re-touch fresh pages each iteration.
  std::size_t page = 0;
  const std::size_t npages = (4u << 20) / 4096 - 1;
  const std::byte* base1 = cluster.node(1).base();
  const std::size_t off = cluster.node(0).offset_of(data);
  for (auto _ : state) {
    volatile std::uint8_t sink =
        static_cast<std::uint8_t>(*(base1 + off + page * 4096));
    benchmark::DoNotOptimize(sink);
    page = (page + 1) % npages;
    if (page == 0) state.SkipWithError("exhausted fresh pages");
  }
  cluster.shutdown();
}
BENCHMARK(BM_RemotePageFetch)->Iterations(500);

}  // namespace
}  // namespace parade::dsm

BENCHMARK_MAIN();

// Paper §5.1 claim: "all the methods achieve comparable performance on an
// SMP Linux cluster system". This bench compares the two implementable
// double-mapping methods (memfd file mapping and System V shared memory) on
// the operations the DSM exercises: page update through the system view,
// protection flips, and the full remote-fault service path on a 2-node
// cluster.
#include <benchmark/benchmark.h>

#include <sys/mman.h>

#include <cstring>
#include <vector>

#include "dsm/cluster.hpp"
#include "dsm/mapping.hpp"

namespace parade::dsm {
namespace {

MapMethod method_of(benchmark::State& state) {
  return state.range(0) == 0 ? MapMethod::kMemfd : MapMethod::kSysV;
}

void set_label(benchmark::State& state) {
  state.SetLabel(to_string(method_of(state)));
}

void BM_MappedPageUpdate(benchmark::State& state) {
  auto mapping = SegmentPool::create(1 << 20, 4096, method_of(state));
  if (!mapping.is_ok()) {
    state.SkipWithError("mapping unavailable");
    return;
  }
  auto& m = *mapping.value();
  std::vector<std::uint8_t> page(4096, 0xAB);
  std::size_t at = 0;
  for (auto _ : state) {
    // The install path: copy through the system view, then open the page.
    std::memcpy(m.sys_view() + at * 4096, page.data(), 4096);
    (void)m.protect_app(at * 4096, 4096, PROT_READ);
    at = (at + 1) % 256;
  }
  set_label(state);
}
BENCHMARK(BM_MappedPageUpdate)->Arg(0)->Arg(1);

void BM_MappedProtectFlip(benchmark::State& state) {
  auto mapping = SegmentPool::create(1 << 20, 4096, method_of(state));
  if (!mapping.is_ok()) {
    state.SkipWithError("mapping unavailable");
    return;
  }
  auto& m = *mapping.value();
  std::size_t at = 0;
  for (auto _ : state) {
    (void)m.protect_app(at * 4096, 4096, PROT_READ | PROT_WRITE);
    (void)m.protect_app(at * 4096, 4096, PROT_NONE);
    at = (at + 1) % 256;
  }
  set_label(state);
}
BENCHMARK(BM_MappedProtectFlip)->Arg(0)->Arg(1);

void BM_RemoteFaultService(benchmark::State& state) {
  DsmConfig config;
  config.pool_bytes = 8 << 20;
  config.map_method = method_of(state);
  DsmCluster cluster(Topology::cluster(2), config);
  auto* data = static_cast<std::uint8_t*>(cluster.node(0).shmalloc(4 << 20));
  (void)cluster.node(1).shmalloc(4 << 20);
  const std::byte* base1 = cluster.node(1).base();
  const std::size_t off = cluster.node(0).offset_of(data);
  const std::size_t npages = (4u << 20) / 4096 - 1;
  std::size_t page = 0;
  for (auto _ : state) {
    volatile std::uint8_t sink =
        static_cast<std::uint8_t>(*(base1 + off + page * 4096));
    benchmark::DoNotOptimize(sink);
    page = (page + 1) % npages;
    if (page == 0) state.SkipWithError("exhausted fresh pages");
  }
  set_label(state);
  cluster.shutdown();
}
BENCHMARK(BM_RemoteFaultService)->Arg(0)->Arg(1)->Iterations(500);

}  // namespace
}  // namespace parade::dsm

BENCHMARK_MAIN();

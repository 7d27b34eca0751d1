// Ablation for paper §5.2.1: the small-data threshold that switches a
// synchronized update from the HLRC invalidate path (DSM lock + twin/diff)
// to the message-passing update path (collective). The paper picked 256 B on
// their cluster. We time both mechanisms for payloads from 8 B to 4 KiB and
// print the per-operation cost so the crossover is visible.
#include <cstring>

#include "bench/figure_common.hpp"
#include "runtime/api.hpp"

namespace parade {
namespace {

double collective_us(int nodes, std::size_t bytes, long iters) {
  RuntimeConfig config =
      bench::figure_config(nodes, vtime::NodeConfig::k2Thread2Cpu, 8u << 20);
  std::vector<std::uint8_t> replica(bytes, 0);
  std::vector<std::uint8_t> contribution(bytes, 1);
  const double seconds = run_virtual_cluster_s(config, [&] {
    std::vector<std::uint8_t> local_replica(bytes, 0);
    parallel([&] {
      for (long i = 0; i < iters; ++i) {
        team_update_bytes(local_replica.data(), contribution.data(), bytes,
                          [](void* inout, const void* in, std::size_t n) {
                            auto* a = static_cast<std::uint8_t*>(inout);
                            const auto* b = static_cast<const std::uint8_t*>(in);
                            for (std::size_t k = 0; k < n; ++k) a[k] += b[k];
                          });
      }
    });
  });
  return seconds * 1e6 / static_cast<double>(iters);
}

double dsm_lock_us(int nodes, std::size_t bytes, long iters) {
  RuntimeConfig config =
      bench::figure_config(nodes, vtime::NodeConfig::k2Thread2Cpu, 8u << 20);
  const double seconds = run_virtual_cluster_s(config, [&] {
    auto* data = static_cast<std::uint8_t*>(shmalloc(bytes, 64));
    if (node_id() == 0) std::memset(data, 0, bytes);
    barrier();
    parallel([&] {
      for (long i = 0; i < iters; ++i) {
        critical_conventional(7, [&] {
          for (std::size_t k = 0; k < bytes; ++k) data[k] += 1;
        });
      }
    });
  });
  return seconds * 1e6 / static_cast<double>(iters);
}

}  // namespace
}  // namespace parade

int main(int argc, char** argv) {
  using namespace parade;
  const long iters = bench::arg_long(argc, argv, "iters", 20);
  const int nodes = static_cast<int>(bench::arg_long(argc, argv, "nodes", 4));

  std::printf(
      "\n# Ablation (paper 5.2.1): message-passing update vs HLRC lock path "
      "per synchronized update, %d nodes (virtual time)\n",
      nodes);
  std::printf("%-10s  %16s  %16s\n", "bytes", "collective[us]", "dsm-lock[us]");
  for (const std::size_t bytes : {8u, 32u, 64u, 128u, 256u, 512u, 1024u, 4096u}) {
    const double coll = collective_us(nodes, bytes, iters);
    const double lock = dsm_lock_us(nodes, bytes, iters);
    std::printf("%-10zu  %16.3f  %16.3f\n", bytes, coll, lock);
  }
  std::printf(
      "# The paper sets the switch threshold where these curves cross "
      "(256 B on their cluster).\n");
  bench::export_metrics("ablation_threshold");
  return 0;
}

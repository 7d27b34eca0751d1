// Figure 6: latency of the OpenMP `critical` directive — ParADE's hybrid
// translation (pthread lock + MPI_Allreduce, Figure 2 right) vs the
// conventional SDSM translation (DSM lock around a shared-page update,
// Figure 2 left; KDSM baseline).
//
// EPCC-syncbench style: every team thread executes the construct `iters`
// times updating one shared double; we report virtual microseconds per
// construct execution per thread.
#include <cstdio>

#include "bench/figure_common.hpp"
#include "runtime/api.hpp"

namespace parade {
namespace {

double parade_critical_us(int nodes, long iters) {
  RuntimeConfig config =
      bench::figure_config(nodes, vtime::NodeConfig::k2Thread2Cpu, 8u << 20);
  const double seconds = run_virtual_cluster_s(config, [&] {
    double sum_replica = 0.0;
    parallel([&] {
      for (long i = 0; i < iters; ++i) {
        // Translated form of: #pragma omp critical { sum += 1.0; }
        team_update(&sum_replica, 1.0, mp::Op::kSum);
      }
    });
  });
  return seconds * 1e6 / static_cast<double>(iters);
}

double kdsm_critical_us(int nodes, long iters) {
  RuntimeConfig config =
      bench::figure_config(nodes, vtime::NodeConfig::k2Thread2Cpu, 8u << 20);
  config.dsm.home_migration = false;  // original HLRC (KDSM-like)
  const double seconds = run_virtual_cluster_s(config, [&] {
    auto* sum = shmalloc_array<double>(1);
    if (node_id() == 0) *sum = 0.0;
    barrier();
    parallel([&] {
      for (long i = 0; i < iters; ++i) {
        critical_conventional(1, [&] { *sum += 1.0; });
      }
    });
  });
  return seconds * 1e6 / static_cast<double>(iters);
}

}  // namespace
}  // namespace parade

int main(int argc, char** argv) {
  using namespace parade;
  const long iters = bench::arg_long(argc, argv, "iters", 40);

  bench::Series parade_series{"ParADE", {}};
  bench::Series kdsm_series{"KDSM", {}};
  for (const int nodes : bench::kNodeSweep) {
    parade_series.values.push_back(parade_critical_us(nodes, iters));
    kdsm_series.values.push_back(kdsm_critical_us(nodes, iters));
  }
  bench::print_figure(
      "Figure 6: critical directive latency, ParADE vs conventional SDSM "
      "(virtual time)",
      "us/op", bench::kNodeSweep, {parade_series, kdsm_series});
  return 0;
}

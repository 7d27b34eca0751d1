// Figure 7: latency of the OpenMP `single` directive — ParADE's translation
// (node-local claim + MPI_Bcast, no inter-node barrier; Figure 3 right) vs
// the conventional SDSM translation (DSM lock + shared flag + SDSM barrier;
// Figure 3 left).
#include "bench/figure_common.hpp"
#include "runtime/api.hpp"

namespace parade {
namespace {

double parade_single_us(int nodes, long iters) {
  RuntimeConfig config =
      bench::figure_config(nodes, vtime::NodeConfig::k2Thread2Cpu, 8u << 20);
  const double seconds = run_virtual_cluster_s(config, [&] {
    double value = 0.0;
    parallel([&] {
      for (long i = 0; i < iters; ++i) {
        single_small(&value, sizeof(value),
                     [&] { value = static_cast<double>(i); });
      }
    });
  });
  return seconds * 1e6 / static_cast<double>(iters);
}

double kdsm_single_us(int nodes, long iters) {
  RuntimeConfig config =
      bench::figure_config(nodes, vtime::NodeConfig::k2Thread2Cpu, 8u << 20);
  config.dsm.home_migration = false;
  const double seconds = run_virtual_cluster_s(config, [&] {
    auto* flag = shmalloc_array<std::int64_t>(1);
    auto* value = shmalloc_array<double>(1);
    if (node_id() == 0) {
      *flag = 0;
      *value = 0.0;
    }
    barrier();
    parallel([&] {
      for (long i = 0; i < iters; ++i) {
        single_conventional(2, flag, i + 1,
                            [&] { *value = static_cast<double>(i); });
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
    parade_series.values.push_back(parade_single_us(nodes, iters));
    kdsm_series.values.push_back(kdsm_single_us(nodes, iters));
  }
  bench::print_figure(
      "Figure 7: single directive latency, ParADE vs conventional SDSM "
      "(virtual time)",
      "us/op", bench::kNodeSweep, {parade_series, kdsm_series});
  return 0;
}

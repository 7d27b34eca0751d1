// Runtime configuration: cluster shape + DSM + timing model.
#pragma once

#include "dsm/config.hpp"
#include "vtime/clock.hpp"
#include "vtime/cost_model.hpp"

namespace parade {

struct RuntimeConfig {
  int nodes = 2;
  int threads_per_node = 2;
  /// Barrier gather/scatter tree fan-out (Topology::fanout, PARADE_BARRIER).
  /// <= 0 selects the flat shape: node 0 gathers every arrival directly.
  /// Small fan-outs trade root-side O(nodes) overhead for O(log_k nodes)
  /// latency hops — the scaleout bench shows tree winning from ~32 nodes
  /// (docs/SCALING.md).
  int barrier_fanout = 0;
  dsm::DsmConfig dsm{};
  /// Virtual-time multiplier for measured CPU time (PARADE_CPU_SCALE).
  double cpu_scale = 1.0;

  /// Convenience: apply one of the paper's three measurement configurations
  /// (§6.2) — thread count and CPU layout together.
  RuntimeConfig& with_node_config(vtime::NodeConfig node_config) {
    dsm.machine = vtime::machine_for(node_config);
    threads_per_node = dsm.machine.compute_threads;
    return *this;
  }

  int total_threads() const { return nodes * threads_per_node; }
};

/// Reads PARADE_NODES, PARADE_THREADS, PARADE_NET*, PARADE_CPU_SCALE,
/// PARADE_CPUS_PER_NODE, PARADE_HOME_MIGRATION, PARADE_POOL_MB,
/// PARADE_RETRY_*, PARADE_BARRIER, PARADE_HOME_SHARDING and
/// PARADE_MAP_METHOD.
RuntimeConfig runtime_config_from_env();

}  // namespace parade

// Runtime support for translator OUTPUT. Translated programs include this
// header; it provides node-replicated global storage, loop-bound helpers,
// master-filtered stdio, and the cluster launch wrapper. Nothing here is
// used by the translator binary itself.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <functional>

#include "common/env.hpp"
#include "runtime/api.hpp"
#include "runtime/cluster.hpp"
#include "runtime/omp_shim.hpp"

namespace parade::xlat {

inline constexpr int kMaxNodes = 64;

/// Node-replicated global variable. In-process virtual clusters host every
/// node in one address space, so a plain C global would be accidentally
/// shared across nodes; Replicated gives each node its own slot, matching
/// the per-process globals of a real (multi-process) deployment. Consistency
/// across nodes is the translator's job (collectives / single broadcasts /
/// redundant serial execution).
template <typename T>
class Replicated {
 public:
  Replicated() : slots_{} {}
  explicit Replicated(const T& init) {
    for (int i = 0; i < kMaxNodes; ++i) slots_[i] = init;
  }

  T& get() {
    ThreadCtx* ctx = current_ctx_or_null();
    return slots_[ctx != nullptr ? ctx->node->node_id() : 0];
  }

 private:
  T slots_[kMaxNodes];
};

/// Iteration count of a canonical OpenMP loop normalized to [0, count).
inline long loop_count(long lower, long upper, long step, bool inclusive,
                       bool increasing) {
  if (step <= 0) step = 1;
  const long span = increasing ? upper - lower : lower - upper;
  const long adjusted = span + (inclusive ? 1 : 0);
  if (adjusted <= 0) return 0;
  return (adjusted + step - 1) / step;
}

/// Value of the loop variable for normalized index `i`.
inline long loop_index(long lower, long step, bool increasing, long i) {
  return increasing ? lower + i * step : lower - i * step;
}

/// printf that only node 0 executes, so redundant serial execution does not
/// repeat program output once per node.
inline int master_printf(const char* format, ...) {
  ThreadCtx* ctx = current_ctx_or_null();
  if (ctx != nullptr && ctx->node->node_id() != 0) return 0;
  va_list args;
  va_start(args, format);
  const int n = std::vfprintf(stdout, format, args);
  va_end(args);
  std::fflush(stdout);
  return n;
}

/// Entry-point wrapper emitted by the translator. Runs the user's main on a
/// virtual cluster configured from PARADE_* environment variables, or joins
/// a multi-process cluster when launched under parade_run.
inline int launch(const std::function<int()>& user_main) {
  if (env::get_int("PARADE_RANK").has_value()) {
    auto runtime = ProcessRuntime::from_env();
    if (!runtime.is_ok()) {
      std::fprintf(stderr, "parade: %s\n",
                   runtime.status().to_string().c_str());
      return 1;
    }
    int rc = 0;
    runtime.value()->exec([&] { rc = user_main(); });
    return rc;
  }
  RuntimeConfig config = runtime_config_from_env();
  VirtualCluster cluster(config);
  int rc = 0;
  cluster.exec([&] {
    const int node_rc = user_main();
    if (node_id() == 0) rc = node_rc;
  });
  cluster.shutdown();
  return rc;
}

}  // namespace parade::xlat

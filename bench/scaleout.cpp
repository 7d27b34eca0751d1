// Scale-out bench: per-epoch barrier cost, flat vs k-ary tree, 8..128
// virtual nodes (docs/SCALING.md).
//
//   scaleout [--nodes=8,16,32,64,128] [--fanout=4] [--epochs=48]
//            [--net=clan|fastether|ideal] [--out=PATH]
//            [--baseline=PATH] [--tolerance=0.15] [--require-tree-win]
//
// Each node dirties one word of its own page per epoch (sole modifier: the
// page migrates home once and then stays put, so no cross-node fetch traffic
// competes with the barrier) and hits the global barrier. Every epoch still
// gathers one write notice per node — N blocks through the compacted
// interval-vector streams — so the reported figure, virtual microseconds per
// barrier epoch, is the modeled LogGP critical path through gather, epoch
// close, and release. CPU scale is pinned to 0 so the number is a function
// of the protocol's message pattern alone (a few percent of interleaving
// jitter remains in the comm-clock fold; the default epoch count amortizes
// it well inside the 15% gate). Run with PARADE_TRACE=1 / PARADE_METRICS to
// additionally get
// parade_trace's per-epoch `barrier-critical-path` breakdown of the same
// runs.
//
// --out writes the machine-readable table (BENCH_scaleout.json). --baseline
// compares the fresh numbers against a committed run and exits 1 when any
// matching configuration regressed beyond --tolerance. --require-tree-win
// exits 1 unless the tree barrier beats flat at every swept count >= 32.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/figure_common.hpp"
#include "obs/json.hpp"
#include "runtime/api.hpp"

namespace parade {
namespace {

constexpr std::size_t kPageBytes = 4096;
constexpr int kWarmupEpochs = 2;

struct Row {
  int nodes = 0;
  std::string barrier;  // "flat" or "tree:<k>"
  double barrier_us = 0.0;
};

/// Total virtual time of `epochs` notice-generating barrier epochs.
double sweep_total_us(int nodes, int fanout, const std::string& net,
                      int epochs) {
  RuntimeConfig config;
  config.nodes = nodes;
  config.with_node_config(vtime::NodeConfig::k1Thread2Cpu);
  config.cpu_scale = 0.0;  // modeled communication only: deterministic
  config.dsm.net = vtime::model_from_name(net);
  config.dsm.pool_bytes = static_cast<std::size_t>(nodes + 2) * kPageBytes;
  config.barrier_fanout = fanout;
  const double seconds = run_virtual_cluster_s(config, [&] {
    auto* data = shmalloc_array<std::uint64_t>(
        static_cast<std::size_t>(num_nodes()) * kPageBytes /
        sizeof(std::uint64_t));
    barrier();
    const std::size_t words_per_page = kPageBytes / sizeof(std::uint64_t);
    const std::size_t my_word =
        static_cast<std::size_t>(node_id()) * words_per_page;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      data[my_word] = static_cast<std::uint64_t>(epoch + 1);
      barrier();
    }
  });
  return seconds * 1e6;
}

/// Warm per-epoch barrier cost: two runs differing only in epoch count, so
/// startup, first-touch faults, and teardown cancel exactly.
double barrier_epoch_us(int nodes, int fanout, const std::string& net,
                        int epochs) {
  const double warm = sweep_total_us(nodes, fanout, net, kWarmupEpochs);
  const double full = sweep_total_us(nodes, fanout, net, kWarmupEpochs + epochs);
  return (full - warm) / static_cast<double>(epochs);
}

std::vector<int> parse_nodes(const std::string& spec) {
  std::vector<int> nodes;
  std::stringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    const int n = std::atoi(item.c_str());
    if (n >= 2 && n <= 128) nodes.push_back(n);
  }
  return nodes;
}

bool write_json(const std::string& path, const std::string& net, int epochs,
                int fanout, const std::vector<Row>& rows) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("scaleout");
  w.key("net");
  w.value(net);
  w.key("epochs");
  w.value(static_cast<std::int64_t>(epochs));
  w.key("fanout");
  w.value(static_cast<std::int64_t>(fanout));
  w.key("rows");
  w.begin_array();
  for (const Row& row : rows) {
    w.begin_object();
    w.key("nodes");
    w.value(static_cast<std::int64_t>(row.nodes));
    w.key("barrier");
    w.value(row.barrier);
    w.key("barrier_us");
    w.value(row.barrier_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

/// Compares fresh rows against a committed baseline file; returns the number
/// of configurations that regressed beyond `tolerance`.
int check_baseline(const std::string& path, const std::string& net,
                   const std::vector<Row>& rows, double tolerance) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "scaleout: cannot open baseline %s\n", path.c_str());
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = obs::parse_json(text.str());
  if (!parsed.is_ok() || !parsed.value().is_object() ||
      !parsed.value().has("rows") || !parsed.value().at("rows").is_array()) {
    std::fprintf(stderr, "scaleout: baseline %s is not a scaleout table\n",
                 path.c_str());
    return 1;
  }
  if (parsed.value().has("net") &&
      parsed.value().at("net").string != net) {
    std::printf("baseline used net=%s, current run uses net=%s; skipping "
                "regression gate\n",
                parsed.value().at("net").string.c_str(), net.c_str());
    return 0;
  }
  int regressions = 0;
  for (const Row& row : rows) {
    for (const obs::JsonValue& base : parsed.value().at("rows").array) {
      if (!base.is_object() || !base.has("nodes") || !base.has("barrier") ||
          !base.has("barrier_us")) {
        continue;
      }
      if (base.at("nodes").as_int() != row.nodes ||
          base.at("barrier").string != row.barrier) {
        continue;
      }
      const double budget = base.at("barrier_us").number * (1.0 + tolerance);
      const bool regressed = row.barrier_us > budget;
      std::printf("gate %-8s n=%-4d %10.3f us vs baseline %10.3f us %s\n",
                  row.barrier.c_str(), row.nodes, row.barrier_us,
                  base.at("barrier_us").number,
                  regressed ? "REGRESSED" : "ok");
      if (regressed) ++regressions;
    }
  }
  return regressions;
}

}  // namespace
}  // namespace parade

int main(int argc, char** argv) {
  using namespace parade;
  const std::string nodes_spec =
      bench::arg_string(argc, argv, "nodes", "8,16,32,64,128");
  const std::string net = bench::arg_string(argc, argv, "net", "clan");
  const std::string out_path = bench::arg_string(argc, argv, "out", "");
  const std::string baseline = bench::arg_string(argc, argv, "baseline", "");
  const double tolerance = std::atof(
      bench::arg_string(argc, argv, "tolerance", "0.15").c_str());
  const int fanout = static_cast<int>(
      bench::arg_long(argc, argv, "fanout", 4));
  // 48 epochs amortizes scheduler-interleaving noise in the virtual-time
  // fold to a few percent — comfortably inside the 15% regression gate.
  const int epochs =
      static_cast<int>(bench::arg_long(argc, argv, "epochs", 48));
  bool require_tree_win = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--require-tree-win") require_tree_win = true;
  }
  const std::vector<int> sweep = parse_nodes(nodes_spec);
  if (sweep.empty() || fanout < 1 || epochs < 1) {
    std::fprintf(stderr,
                 "usage: scaleout [--nodes=8,16,32,64,128] [--fanout=4] "
                 "[--epochs=48] [--net=clan|fastether|ideal] [--out=PATH] "
                 "[--baseline=PATH] [--tolerance=0.15] [--require-tree-win]\n");
    return 2;
  }

  const std::string tree_name = "tree:" + std::to_string(fanout);
  bench::Series flat_series{"flat", {}};
  bench::Series tree_series{tree_name, {}};
  std::vector<Row> rows;
  bool tree_wins_at_scale = true;
  for (const int nodes : sweep) {
    const double flat_us = barrier_epoch_us(nodes, 0, net, epochs);
    const double tree_us = barrier_epoch_us(nodes, fanout, net, epochs);
    flat_series.values.push_back(flat_us);
    tree_series.values.push_back(tree_us);
    rows.push_back({nodes, "flat", flat_us});
    rows.push_back({nodes, tree_name, tree_us});
    if (nodes >= 32 && tree_us >= flat_us) tree_wins_at_scale = false;
  }
  bench::print_figure(
      "Scale-out: barrier critical path, flat vs " + tree_name +
          " gather (virtual time, " + net + ")",
      "us/epoch", sweep, {flat_series, tree_series});

  if (!out_path.empty() &&
      !write_json(out_path, net, epochs, fanout, rows)) {
    std::fprintf(stderr, "scaleout: cannot write %s\n", out_path.c_str());
    return 1;
  }
  int failures = 0;
  if (!baseline.empty()) {
    failures += check_baseline(baseline, net, rows, tolerance);
  }
  if (require_tree_win && !tree_wins_at_scale) {
    std::fprintf(stderr,
                 "scaleout: tree barrier did not beat flat at >= 32 nodes\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

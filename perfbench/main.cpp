// parade_perfbench: the repository benchmark driver (see README.md beside
// this file for the metric table and the layer map).
//
//   parade_perfbench --workload cg|sync|translate --seed N --seconds S
//                    --trace 0|1 [--smoke]
//
// Runs units of one workload for S seconds of wall time on a 2-node x
// 2-thread in-process VirtualCluster (cLAN model, cpu_scale 0) or, for
// `translate`, on the translator library alone. Every unit is verified. With
// --trace 1 the time is split: an untraced half yields the per-layer
// counters, a traced half the per-layer self times. --smoke runs one unit per
// phase. Prints human-readable lines, then one `result {json}` line carrying
// every metric it measured; run.py selects the BENCHMARK.json subset.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/cg.hpp"
#include "corpus.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runtime/api.hpp"
#include "runtime/cluster.hpp"
#include "translator/analyze.hpp"
#include "translator/parser.hpp"
#include "translator/token.hpp"
#include "translator/translate.hpp"

namespace perfbench {
namespace {

using namespace parade;

// ---------------------------------------------------------------------------
// Options, samples and output

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

bool parse_options(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return options->workload == "cg" || options->workload == "sync" ||
         options->workload == "translate";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The highest percentile with at least ten samples above it: the 11th
/// largest value, at percentile 100 * (n - 10) / n. Runs with ten or fewer
/// samples (smoke mode) report their largest value at percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};

Tail tail_of(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

/// Per-unit samples by metric name, with the metric's unit; a metric's value
/// is the median of its samples.
class Samples {
 public:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };

  void add(const std::string& name, double value, const std::string& unit) {
    Series& series = series_[name];
    series.unit = unit;
    series.values.push_back(value);
  }
  double median_of(const std::string& name) const {
    auto it = series_.find(name);
    return it == series_.end() ? 0.0 : median(it->second.values);
  }
  const std::map<std::string, Series>& all() const { return series_; }

 private:
  std::map<std::string, Series> series_;
};

/// Metrics in print order with their units.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  void print(bool correct, long attempted, long failed) const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("correct");
    w.value(correct);
    w.key("attempted");
    w.value(static_cast<std::int64_t>(attempted));
    w.key("failed");
    w.value(static_cast<std::int64_t>(failed));
    w.key("metrics");
    w.begin_object();
    for (const auto& entry : entries_) {
      std::printf("metric %-34s %.6g %s\n", entry.name.c_str(), entry.value,
                  entry.unit.c_str());
      w.key(entry.name);
      w.begin_object();
      w.key("value");
      w.value(entry.value);
      w.key("unit");
      w.value(entry.unit);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("result %s\n", w.str().c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
};

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {seconds(ru.ru_utime), seconds(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Tracing: benchmark-side spans and per-layer self time

// Span kinds the benchmark opens around public calls. They sit above the
// runtime's TraceKind values, so attribution can tell the two apart.
constexpr auto kApiSpan = static_cast<obs::TraceKind>(64);
constexpr auto kLexSpan = static_cast<obs::TraceKind>(65);
constexpr auto kParseSpan = static_cast<obs::TraceKind>(66);
constexpr auto kAnalyzeSpan = static_cast<obs::TraceKind>(67);
constexpr auto kGenerateSpan = static_cast<obs::TraceKind>(68);

std::string span_layer(obs::TraceKind kind) {
  switch (static_cast<int>(kind)) {
    case 64: return "api";
    case 65: return "lex";
    case 66: return "parse";
    case 67: return "analyze";
    case 68: return "generate";
    default: return obs::trace_kind_name(kind);
  }
}

/// Adds each span's self time (its duration minus the union of its
/// children's intervals, clipped to it) to `self_ns` by layer.
void add_self_times(const std::vector<obs::TraceEvent>& events,
                    std::map<std::string, double>* self_ns) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (e.end_wall_ns > 0 && e.parent_span != 0) children[e.parent_span].push_back(i);
  }
  for (const obs::TraceEvent& e : events) {
    if (e.end_wall_ns <= 0 || e.span_id == 0) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (auto it = children.find(e.span_id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const std::int64_t lo = std::max(events[c].wall_ns, e.wall_ns);
        const std::int64_t hi = std::min(events[c].end_wall_ns, e.end_wall_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t busy = 0;
    std::int64_t reach = e.wall_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) busy += hi - from;
      reach = std::max(reach, hi);
    }
    (*self_ns)[span_layer(e.kind)] +=
        static_cast<double>(e.end_wall_ns - e.wall_ns - busy);
  }
}

/// Collects the trace ring after each traced unit (the cluster is quiescent
/// then), so a unit's spans are attributed before the next unit starts.
struct TraceTotals {
  std::map<std::string, double> self_ns;
  std::int64_t events = 0;
  std::int64_t dropped = 0;
  long units = 0;

  void collect() {
    auto& reg = obs::Registry::instance();
    const std::vector<obs::TraceEvent> ring = reg.trace_events();
    dropped += reg.trace_dropped();
    events += static_cast<std::int64_t>(ring.size());
    add_self_times(ring, &self_ns);
    reg.reset_trace();
    ++units;
  }

  void report(Report* report) const {
    const double per_unit = units > 0 ? 1.0 / static_cast<double>(units) : 0.0;
    for (const auto& [layer, ns] : self_ns) {
      report->set("trace." + layer + ".self_ms", ns * per_unit / 1e6, "ms");
    }
    report->set("obs.trace.events", static_cast<double>(events) * per_unit, "count");
    report->set("obs.trace.dropped", static_cast<double>(dropped), "count");
  }
};

// ---------------------------------------------------------------------------
// Units of work

struct Unit {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  bool ok = true;
};

/// The paper's 2Thread-2CPU configuration on the cLAN model. cpu_scale 0
/// makes exec()'s virtual time pure modeled protocol and network cost.
RuntimeConfig cluster_config() {
  RuntimeConfig config;
  config.nodes = 2;
  config.with_node_config(vtime::NodeConfig::k2Thread2Cpu);
  config.cpu_scale = 0.0;
  config.dsm.net = vtime::clan_via();
  return config;
}

std::int64_t counter_sum(const std::vector<obs::NodeSnapshot>& nodes,
                         const std::string& name) {
  std::int64_t total = 0;
  for (const auto& node : nodes) {
    if (auto it = node.counters.find(name); it != node.counters.end()) {
      total += it->second;
    }
  }
  return total;
}

/// Timers whose name starts with `prefix`, summed over nodes, in ms.
double timer_sum_ms(const std::vector<obs::NodeSnapshot>& nodes,
                    const std::string& prefix) {
  std::int64_t ns = 0;
  for (const auto& node : nodes) {
    for (const auto& [name, timer] : node.timers) {
      if (name.rfind(prefix, 0) == 0) ns += timer.total_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

/// The slowest node's percentile of a latency histogram, in µs.
double hist_max_us(const std::vector<obs::NodeSnapshot>& nodes,
                   const std::string& name, bool p95) {
  std::int64_t ns = 0;
  for (const auto& node : nodes) {
    if (auto it = node.hists.find(name); it != node.hists.end()) {
      ns = std::max(ns, p95 ? it->second.p95_ns : it->second.p50_ns);
    }
  }
  return static_cast<double>(ns) / 1e3;
}

struct CounterSpec {
  const char* name;
  const char* unit;
};

// Registry counters reported per unit, summed over the nodes.
const CounterSpec kUnitCounters[] = {
    {"dsm.page_fetches", "count"},       {"dsm.read_faults", "count"},
    {"dsm.write_faults", "count"},       {"dsm.diffs_created", "count"},
    {"dsm.diff_bytes_sent", "bytes"},    {"dsm.twins_created", "count"},
    {"dsm.twins_shared", "count"},       {"dsm.home_migrations", "count"},
    {"dsm.invalidations", "count"},      {"dsm.write_notices_sent", "count"},
    {"dsm.lock_acquires", "count"},      {"dsm.lock_remote_grants", "count"},
    {"dsm.retry.count", "count"},        {"dsm.invariant.violations", "count"},
    {"mp.allreduces", "count"},          {"mp.bcasts", "count"},
    {"mp.barriers", "count"},            {"mp.coll_payload_bytes", "bytes"},
    {"net.send_msgs.dsm", "count"},      {"net.send_msgs.mp", "count"},
    {"net.send_msgs.coll", "count"},     {"net.send_msgs.ack", "count"},
    {"net.send_bytes.dsm", "bytes"},     {"net.send_bytes.coll", "bytes"},
    {"rt.parallel_regions", "count"},
};

/// Records one unit's layer counters from the registry; returns false when
/// the protocol retried or broke an invariant.
bool record_layers(const std::vector<obs::NodeSnapshot>& nodes, Samples* s) {
  for (const CounterSpec& spec : kUnitCounters) {
    s->add(spec.name, static_cast<double>(counter_sum(nodes, spec.name)), spec.unit);
  }
  const auto fetches = counter_sum(nodes, "dsm.page_fetches");
  if (fetches > 0) {
    s->add("net.msgs_per_fetch",
           static_cast<double>(counter_sum(nodes, "net.send_msgs.dsm")) /
               static_cast<double>(fetches),
           "ratio");
  }
  s->add("dsm.fetch_p50_us", hist_max_us(nodes, "dsm.fetch_ns", false), "us");
  s->add("dsm.fetch_p95_us", hist_max_us(nodes, "dsm.fetch_ns", true), "us");
  s->add("dsm.barrier_wait_p50_us", hist_max_us(nodes, "dsm.barrier_wait_ns", false),
         "us");
  s->add("dsm.lock_grant_p50_us", hist_max_us(nodes, "dsm.lock_grant_ns", false),
         "us");
  s->add("mp.collective_p50_us", hist_max_us(nodes, "mp.collective_ns", false), "us");
  s->add("mp.collective_p95_us", hist_max_us(nodes, "mp.collective_ns", true), "us");
  s->add("mp.recv_wait_ms", timer_sum_ms(nodes, "mp.recv_wait"), "ms");
  s->add("rt.barrier_wait_ms", timer_sum_ms(nodes, "rt.barrier_wait.t"), "ms");
  return counter_sum(nodes, "dsm.retry.count") == 0 &&
         counter_sum(nodes, "dsm.invariant.violations") == 0;
}

/// One unit on a fresh cluster: construction is a set-up sample, exec() the
/// timed unit, and the registry after exec() holds the unit's own counts
/// (each node start zeroes its metrics).
Unit cluster_unit(const std::function<void()>& program, bool traced, Samples* s) {
  Unit unit;
  const RuntimeConfig config = cluster_config();
  std::int64_t t = wall_ns();
  auto cluster = std::make_unique<VirtualCluster>(config);
  const double setup_s = ns_to_s(wall_ns() - t);

  const Usage before = process_usage();
  t = wall_ns();
  const VirtualUs vt_us = cluster->exec(program);
  unit.wall_s = ns_to_s(wall_ns() - t);
  const Usage after = process_usage();
  unit.user_s = after.user_s - before.user_s;
  unit.sys_s = after.sys_s - before.sys_s;

  double ledger_us = 0.0;
  for (NodeId rank = 0; rank < cluster->size(); ++rank) {
    ledger_us += cluster->node(rank).dsm().comm_ledger().total();
  }
  t = wall_ns();
  cluster->shutdown();
  cluster.reset();
  const double shutdown_s = ns_to_s(wall_ns() - t);

  std::vector<obs::NodeSnapshot> nodes;
  for (NodeId rank = 0; rank < config.nodes; ++rank) {
    nodes.push_back(obs::Registry::instance().snapshot(rank));
  }
  // Traced units are verified but add no layer samples: their latency
  // histograms would carry the tracing overhead.
  Samples discard;
  unit.ok = record_layers(nodes, traced ? &discard : s);
  if (!traced) {
    s->add("setup_s", setup_s, "s");
    s->add("runtime.start_s", setup_s, "s");
    s->add("runtime.shutdown_s", shutdown_s, "s");
    s->add("vt_comm_s", vt_us / 1e6, "s");
    s->add("vtime.comm_ledger_ms", ledger_us / 1e3, "ms");
  }
  return unit;
}

// ---- cg -------------------------------------------------------------------

struct CgWorkload {
  apps::CgParams params = apps::CgParams::class_w();
  double reference_zeta = 0.0;

  CgWorkload() { apps::cg_reference_zeta(params, &reference_zeta); }

  Unit run(bool traced, Samples* s) {
    std::array<double, 2> zeta{};
    Unit unit = cluster_unit(
        [&] {
          obs::ScopedSpan span(kApiSpan, node_id(), 0);
          zeta[static_cast<std::size_t>(node_id())] = apps::cg_parade(params).zeta;
        },
        traced, s);
    for (const double z : zeta) {
      if (!(std::fabs(z - reference_zeta) <= 1e-9)) unit.ok = false;
    }
    return unit;
  }

  /// The single-threaded baseline and the input generator on their own;
  /// returns false when the baseline misses the reference zeta.
  bool baselines(Samples* s) const {
    for (int i = 0; i < 3; ++i) {
      const std::int64_t t = wall_ns();
      const apps::SparseMatrix m = apps::make_nas_cg_matrix(params);
      s->add("apps.cg.makea_s", ns_to_s(wall_ns() - t), "s");
      if (m.n != params.na) return false;
    }
    const std::int64_t t = wall_ns();
    const apps::CgResult serial = apps::cg_serial(params);
    s->add("apps.cg.serial_s", ns_to_s(wall_ns() - t), "s");
    return std::fabs(serial.zeta - reference_zeta) <= 1e-9;
  }
};

// ---- sync -----------------------------------------------------------------

enum Construct {
  kParallel,
  kBarrier,
  kSingleParade,
  kSingleKdsm,
  kCriticalParade,
  kCriticalKdsm,
  kAtomic,
  kReduction,
  kConstructCount
};

const char* const kConstructNames[kConstructCount] = {
    "parallel",        "barrier",       "single_parade", "single_kdsm",
    "critical_parade", "critical_kdsm", "atomic",        "reduction"};

constexpr int kSingleLock = 3;
constexpr int kCriticalLock = 4;

/// EPCC's delay(): a dab of work between calls so a construct is not timed
/// back to back with itself.
void delay(double* sink) {
  volatile double acc = *sink;
  for (int i = 0; i < 64; ++i) acc = acc + 1e-9 * i;
  *sink = acc;
}

struct SweepState {
  std::array<int, kConstructCount> order{};
  long iterations = 0;
  // Written only by the global master thread.
  std::array<std::int64_t, kConstructCount> call_ns{};
  std::array<double, kConstructCount> call_vus{};
  std::array<long, kConstructCount> calls{};
  std::atomic<int> failures{0};

  void check(bool ok) {
    if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
  }

  /// Runs one public call; the global master times it in wall and virtual
  /// time, and traced runs wrap every thread's call in a benchmark span.
  template <typename F>
  void timed(int construct, F&& call) {
    obs::ScopedSpan span(kApiSpan, node_id(), construct);
    if (!is_master()) {
      call();
      return;
    }
    const auto c = static_cast<std::size_t>(construct);
    const std::int64_t w = wall_ns();
    const VirtualUs v = vtime_now();
    call();
    call_vus[c] += vtime_now() - v;
    call_ns[c] += wall_ns() - w;
    ++calls[c];
  }
};

/// One EPCC sweep over the runtime's public sync API, run by every node's
/// main thread. Each construct's replicated or shared result is checked.
void sync_sweep(SweepState& st) {
  const long iters = st.iterations;
  const long tpn = threads_per_node();
  const double team = num_threads();
  for (const int construct : st.order) {
    barrier();
    switch (construct) {
      case kParallel: {
        std::atomic<long> entered{0};
        double sink = 1.0;
        for (long i = 0; i < iters; ++i) {
          delay(&sink);
          st.timed(kParallel, [&] {
            parallel([&] { entered.fetch_add(1, std::memory_order_relaxed); });
          });
        }
        st.check(entered.load() == iters * tpn);
        break;
      }
      case kBarrier: {
        std::atomic<long> arrived{0};
        parallel([&] {
          double sink = 1.0;
          for (long i = 0; i < iters; ++i) {
            delay(&sink);
            arrived.fetch_add(1, std::memory_order_relaxed);
            st.timed(kBarrier, [] { barrier(); });
            st.check(arrived.load() >= (i + 1) * tpn);
          }
        });
        break;
      }
      case kSingleParade: {
        // One slot per encounter, so no thread rewrites a value another
        // thread is still checking.
        std::vector<double> values(static_cast<std::size_t>(iters), 0.0);
        parallel([&] {
          double sink = 1.0;
          for (long i = 0; i < iters; ++i) {
            delay(&sink);
            double* slot = &values[static_cast<std::size_t>(i)];
            st.timed(kSingleParade, [&] {
              single_small(slot, sizeof(double), [&] { *slot = i + 1.0; });
            });
            st.check(*slot == i + 1.0);
          }
        });
        break;
      }
      case kSingleKdsm: {
        auto* flag = shmalloc_array<std::int64_t>(1);
        auto* values = shmalloc_array<double>(static_cast<std::size_t>(iters));
        if (node_id() == 0) {
          *flag = 0;
          for (long i = 0; i < iters; ++i) values[i] = 0.0;
        }
        barrier();
        parallel([&] {
          double sink = 1.0;
          for (long i = 0; i < iters; ++i) {
            delay(&sink);
            st.timed(kSingleKdsm, [&] {
              single_conventional(kSingleLock, flag, i + 1,
                                  [&] { values[i] = i + 1.0; });
            });
            st.check(values[i] == i + 1.0);
          }
        });
        break;
      }
      case kCriticalParade: {
        double sum = 0.0;
        parallel([&] {
          double sink = 1.0;
          for (long i = 0; i < iters; ++i) {
            delay(&sink);
            st.timed(kCriticalParade,
                     [&] { team_update(&sum, 1.0, mp::Op::kSum); });
          }
        });
        st.check(sum == static_cast<double>(iters) * team);
        break;
      }
      case kCriticalKdsm: {
        auto* sum = shmalloc_array<double>(1);
        if (node_id() == 0) *sum = 0.0;
        barrier();
        parallel([&] {
          double sink = 1.0;
          for (long i = 0; i < iters; ++i) {
            delay(&sink);
            st.timed(kCriticalKdsm, [&] {
              critical_conventional(kCriticalLock, [&] { *sum += 1.0; });
            });
          }
        });
        st.check(*sum == static_cast<double>(iters) * team);
        break;
      }
      case kAtomic: {
        std::int64_t count = 0;
        parallel([&] {
          double sink = 1.0;
          for (long i = 0; i < iters; ++i) {
            delay(&sink);
            st.timed(kAtomic, [&] {
              team_update(&count, std::int64_t{1}, mp::Op::kSum);
            });
          }
        });
        st.check(count == iters * static_cast<long>(team));
        break;
      }
      case kReduction: {
        parallel([&] {
          double sink = 1.0;
          for (long i = 0; i < iters; ++i) {
            delay(&sink);
            double total = 0.0;
            st.timed(kReduction, [&] {
              total = team_reduce(thread_id() + 1.0, mp::Op::kSum);
            });
            st.check(total == team * (team + 1.0) / 2.0);
          }
        });
        break;
      }
      default:
        break;
    }
  }
}

struct SyncWorkload {
  // About 0.2 s per sweep. Larger sweeps would steady the tail, but the
  // seed runtime hangs (barrier gather timeout) past about 512 barriers or
  // collectives in one parallel region, or a few thousand barriers in one
  // cluster.
  static constexpr long kIterations = 480;
  std::uint64_t seed;
  std::uint64_t sweeps = 0;

  explicit SyncWorkload(std::uint64_t s) : seed(s) {}

  Unit run(bool traced, Samples* s) {
    SweepState st;
    st.iterations = kIterations;
    // The seed picks each sweep's construct order (the same on every node).
    for (int c = 0; c < kConstructCount; ++c) st.order[static_cast<std::size_t>(c)] = c;
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + ++sweeps;
    for (std::size_t c = kConstructCount - 1; c > 0; --c) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(st.order[c], st.order[(state >> 33U) % (c + 1)]);
    }
    Unit unit = cluster_unit([&] { sync_sweep(st); }, traced, s);
    if (st.failures.load() != 0) unit.ok = false;
    if (!traced) {
      for (std::size_t c = 0; c < kConstructCount; ++c) {
        if (st.calls[c] == 0) continue;
        const auto calls = static_cast<double>(st.calls[c]);
        const std::string base = std::string("sync.") + kConstructNames[c];
        s->add(base + "_us", static_cast<double>(st.call_ns[c]) / 1e3 / calls, "us");
        s->add(base + "_vus", st.call_vus[c] / calls, "vus");
      }
    }
    return unit;
  }
};

// ---- translate ------------------------------------------------------------

struct TranslateWorkload {
  CorpusShape shape;
  std::uint64_t seed;
  std::vector<std::string> corpus;
  std::vector<std::uint64_t> reference_hash;
  translator::TranslateOptions options;
  bool setup_ok = true;

  explicit TranslateWorkload(std::uint64_t s) : seed(s) {}

  /// Generates the corpus and checks that every program analyzes with no
  /// errors and the planned region count; translate_source's output hash
  /// becomes the reference each unit must reproduce. Repeated set-ups must
  /// give the same hashes.
  void setup(Samples* s) {
    const std::int64_t t = wall_ns();
    std::vector<std::string> programs = generate_corpus(seed, shape);
    std::vector<std::uint64_t> hashes;
    for (const std::string& source : programs) {
      auto analysis = translator::analyze_source(source);
      if (!analysis.is_ok() || analysis.value().has_errors() ||
          static_cast<int>(analysis.value().regions.size()) !=
              shape.regions_per_program) {
        setup_ok = false;
      }
      auto output = translator::translate_source(source, options);
      if (!output.is_ok()) setup_ok = false;
      hashes.push_back(output.is_ok() ? fnv1a(output.value()) : 0);
    }
    s->add("setup_s", ns_to_s(wall_ns() - t), "s");
    if (!reference_hash.empty() && hashes != reference_hash) setup_ok = false;
    corpus = std::move(programs);
    reference_hash = std::move(hashes);
  }

  /// The whole corpus through translate_source's pipeline, called stage by
  /// stage so each stage is timed.
  Unit run(bool traced, Samples* s) {
    Unit unit;
    unit.ok = setup_ok;
    std::array<std::int64_t, 4> stage_ns{};
    std::size_t tokens = 0, regions = 0, bytes = 0;
    const Usage before = process_usage();
    const std::int64_t start = wall_ns();
    for (std::size_t p = 0; p < corpus.size(); ++p) {
      std::uint64_t hash = 0;
      std::int64_t t = wall_ns();
      auto lap = [&](std::size_t stage) {
        const std::int64_t now = wall_ns();
        stage_ns[stage] += now - t;
        t = now;
      };
      [&] {
        std::optional<obs::ScopedSpan> span(std::in_place, kLexSpan, 0, 0);
        auto lexed = translator::lex(corpus[p]);
        span.reset();
        lap(0);
        if (!lexed.is_ok()) return;
        tokens += lexed.value().size();
        span.emplace(kParseSpan, 0, 0);
        auto ast = translator::parse(lexed.value());
        span.reset();
        lap(1);
        if (!ast.is_ok()) return;
        translator::AnalyzeOptions analyze_options;
        analyze_options.mp_threshold_bytes = options.mp_threshold_bytes;
        analyze_options.protocol_hints = options.protocol_hints;
        span.emplace(kAnalyzeSpan, 0, 0);
        const translator::Analysis analysis =
            translator::analyze(ast.value(), analyze_options);
        span.reset();
        lap(2);
        regions += analysis.regions.size();
        if (analysis.has_errors()) return;
        span.emplace(kGenerateSpan, 0, 0);
        auto output = translator::generate(ast.value(), options, analysis);
        span.reset();
        lap(3);
        if (!output.is_ok()) return;
        bytes += output.value().size();
        hash = fnv1a(output.value());
      }();
      if (hash == 0 || hash != reference_hash[p]) unit.ok = false;
    }
    unit.wall_s = ns_to_s(wall_ns() - start);
    const Usage after = process_usage();
    unit.user_s = after.user_s - before.user_s;
    unit.sys_s = after.sys_s - before.sys_s;
    if (!traced) {
      const char* const stages[] = {"lex", "parse", "analyze", "generate"};
      for (std::size_t i = 0; i < stage_ns.size(); ++i) {
        s->add(std::string("translator.") + stages[i] + "_ms", ns_to_ms(stage_ns[i]),
               "ms");
      }
      s->add("translator.tokens", static_cast<double>(tokens), "count");
      s->add("translator.regions", static_cast<double>(regions), "count");
      s->add("translator.output_bytes", static_cast<double>(bytes), "bytes");
    }
    return unit;
  }
};

// ---------------------------------------------------------------------------
// Driver

std::string allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "?";
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!list.empty()) list += ",";
    list += std::to_string(cpu);
  }
  return list;
}

void print_context(const Options& options, const CorpusShape* corpus) {
  const RuntimeConfig config = cluster_config();
  obs::JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(options.workload);
  w.key("seed");
  w.value(static_cast<std::uint64_t>(options.seed));
  w.key("seconds");
  w.value(options.seconds);
  w.key("trace");
  w.value(options.trace);
  w.key("smoke");
  w.value(options.smoke);
  w.key("nproc");
  w.value(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.key("allowed_cpus");
  w.value(allowed_cpus());
  w.key("build_type");
  w.value(PERFBENCH_BUILD_TYPE);
  w.key("network");
  w.value("clan");
  w.key("net_latency_us");
  w.value(config.dsm.net.latency_us);
  w.key("nodes");
  w.value(static_cast<std::int64_t>(config.nodes));
  w.key("threads_per_node");
  w.value(static_cast<std::int64_t>(config.threads_per_node));
  w.key("cpu_scale");
  w.value(config.cpu_scale);
  if (corpus != nullptr) {
    w.key("corpus_programs");
    w.value(static_cast<std::int64_t>(corpus->programs));
    w.key("corpus_regions_per_program");
    w.value(static_cast<std::int64_t>(corpus->regions_per_program));
  }
  w.end_object();
  std::printf("context %s\n", w.str().c_str());
  std::fflush(stdout);
}

/// Runs `unit` until `budget_s` of wall time has passed (once in smoke mode).
std::vector<Unit> run_phase(double budget_s, bool smoke,
                            const std::function<Unit()>& unit) {
  std::vector<Unit> units;
  const std::int64_t start = wall_ns();
  do {
    units.push_back(unit());
  } while (!smoke && ns_to_s(wall_ns() - start) < budget_s);
  return units;
}

int run(const Options& options) {
  const std::string& name = options.workload;
  CgWorkload cg;
  SyncWorkload sync(options.seed);
  TranslateWorkload translate(options.seed);
  print_context(options, name == "translate" ? &translate.shape : nullptr);

  Samples s;
  bool baseline_ok = true;
  std::function<Unit(bool)> unit;
  if (name == "cg") {
    unit = [&](bool traced) { return cg.run(traced, &s); };
    if (options.trace) baseline_ok = cg.baselines(&s);
  } else if (name == "sync") {
    unit = [&](bool traced) { return sync.run(traced, &s); };
  } else {
    for (int rep = 0; rep < 3; ++rep) translate.setup(&s);
    unit = [&](bool traced) { return translate.run(traced, &s); };
  }

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<Unit> untraced =
      run_phase(budget, options.smoke, [&] { return unit(false); });

  std::vector<Unit> traced;
  TraceTotals trace;
  if (options.trace) {
    auto& reg = obs::Registry::instance();
    reg.reset_trace();
    reg.set_trace_enabled(true);
    traced = run_phase(budget, options.smoke, [&] {
      Unit u = unit(true);
      trace.collect();
      return u;
    });
    reg.set_trace_enabled(false);
  }

  long attempted = 0;
  long failed = 0;
  std::vector<double> wall, cpu, user, sys, traced_wall;
  for (const Unit& u : untraced) {
    wall.push_back(u.wall_s);
    cpu.push_back(u.user_s + u.sys_s);
    user.push_back(u.user_s);
    sys.push_back(u.sys_s);
  }
  for (const Unit& u : traced) traced_wall.push_back(u.wall_s);
  auto count = [&](const std::vector<Unit>& units) {
    for (const Unit& u : units) {
      ++attempted;
      if (!u.ok) ++failed;
    }
  };
  count(untraced);
  count(traced);
  if (trace.dropped != 0) ++failed;

  Report report;
  const Tail tail = tail_of(wall);
  report.set("wall_s", median(wall), "s");
  report.set("wall_s_tail", tail.value, "s");
  report.set("wall_s_tail_pct", tail.percentile, "%");
  report.set("units", static_cast<double>(wall.size()), "count");
  report.set("cpu_s", median(cpu), "s");
  report.set("setup_s", s.median_of("setup_s"), "s");
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  report.set("fail_frac",
             static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  report.set("proc.user_cpu_s", median(user), "s");
  report.set("proc.sys_cpu_s", median(sys), "s");
  for (const auto& [metric, series] : s.all()) {
    if (metric != "setup_s") report.set(metric, median(series.values), series.unit);
  }
  if (name == "cg" && options.trace) {
    report.set("apps.cg.speedup", s.median_of("apps.cg.serial_s") / median(wall),
               "ratio");
  }
  if (options.trace) {
    trace.report(&report);
    report.set("obs.trace_overhead", median(traced_wall) / median(wall), "ratio");
  }

  std::vector<double> sorted = wall;
  std::sort(sorted.begin(), sorted.end());
  std::printf(
      "units untraced=%zu traced=%zu failed=%ld; unit wall_s min %.4g q1 %.4g "
      "median %.4g q3 %.4g max %.4g; tail p%.1f\n",
      untraced.size(), traced.size(), failed, sorted.front(),
      sorted[sorted.size() / 4], median(wall), sorted[sorted.size() * 3 / 4],
      sorted.back(), tail.percentile);
  report.print(failed == 0 && baseline_ok, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse_options(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: parade_perfbench --workload cg|sync|translate "
                 "--seed N --seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }
  if (options.trace) {
    // The ring must hold one unit's events (it is drained after each unit);
    // set before the registry singleton is first built.
    setenv("PARADE_TRACE_RING", "524288", 1);
  }
  return perfbench::run(options);
}

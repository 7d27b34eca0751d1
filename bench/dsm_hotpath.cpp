// DSM hot-path bench: wall-clock page-fetch and lock-grant latency through
// the segment pool (twin copies into the twin view, direct serve encode,
// span-decoded installs and diffs).
//
//   dsm_hotpath [--pages=32] [--page-kb=64] [--epochs=48] [--locks=4]
//               [--reps=3] [--out=PATH] [--baseline=PATH]
//
// The cluster runs --reps times and the median run (by fetch mean) is
// reported.
//
// A 2-node cluster ping-pongs ownership: the home dirties every page, the
// remote node refetches and rewrites them all (fetch + twin + diff per page
// per epoch) and cycles a few managed locks. The reported latencies are the
// real `dsm.fetch_ns` / `dsm.lock_grant_ns` histograms on the remote node —
// actual nanoseconds through serve/install and grant, not modeled time.
//
// Absolute nanoseconds vary across machines and are never gated. The
// regression gate (--baseline) instead requires the protocol counts to match
// the committed baseline exactly: the remote node's `fetches` (one per page
// per epoch), `twins_created` (one twin copy per page per epoch) and
// `diff_bytes_sent` (the encoded runs it flushes: one 4-byte run header and
// one changed 4-byte word per page per epoch), and `protect_calls`
// (application-view mprotect calls on both nodes). A change in twins_created
// means write faults stopped twinning exactly once per dirtied page; a
// change in diff_bytes_sent means the flush ships more or fewer bytes for
// the same writes; a rise in protect_calls means barrier-time protection
// changes stopped going out one call per contiguous run of pages.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/figure_common.hpp"
#include "dsm/cluster.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace parade::dsm {
namespace {

struct HotpathRow {
  double fetch_p50_ns = 0.0;
  double fetch_p95_ns = 0.0;
  double fetch_mean_ns = 0.0;
  double lock_grant_p50_ns = 0.0;
  std::int64_t fetches = 0;
  std::int64_t twins_created = 0;
  std::int64_t diff_bytes_sent = 0;
  std::int64_t protect_calls = 0;
};

/// One measured cluster run. Resets the per-node registry slices first so
/// consecutive runs in the same process do not pollute each other's
/// histograms.
HotpathRow run_once(int pages, std::size_t page_bytes, int epochs, int locks) {
  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < 2; ++n) reg.reset_node(n);

  const std::size_t words_per_page = page_bytes / sizeof(std::uint64_t);
  DsmConfig config;
  config.pool_bytes = static_cast<std::size_t>(pages + 2) * page_bytes;
  config.page_bytes = page_bytes;
  // Keep every page homed at node 0 so each epoch's refetch crosses the
  // fabric; migration would collapse the traffic after one round.
  config.home_migration = false;

  DsmCluster cluster(Topology::cluster(2), config);
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    auto* data = static_cast<std::uint64_t*>(node.shmalloc(
        static_cast<std::size_t>(pages) * page_bytes, page_bytes));
    node.barrier();

    for (int epoch = 0; epoch < epochs; ++epoch) {
      if (rank == 0) {
        // Home dirties every page: the next write notices invalidate the
        // remote copies, forcing full refetches below.
        for (int p = 0; p < pages; ++p) {
          data[static_cast<std::size_t>(p) * words_per_page] =
              static_cast<std::uint64_t>(epoch * pages + p + 1);
        }
      }
      node.barrier();
      if (rank == 1) {
        // The measured hot path: fault (fetch+install), then write (twin
        // attach) so the flush exercises the diff pipeline too.
        std::uint64_t sum = 0;
        for (int p = 0; p < pages; ++p) {
          sum += data[static_cast<std::size_t>(p) * words_per_page];
          data[static_cast<std::size_t>(p) * words_per_page + 1] = sum;
        }
        for (int l = 0; l < locks; ++l) {
          node.lock_acquire(l);
          node.lock_release(l);
        }
      }
      node.barrier();
    }
  });

  HotpathRow row;
  const auto& fetch = reg.hist(1, "dsm.fetch_ns");
  row.fetch_p50_ns = static_cast<double>(fetch.percentile_ns(0.50));
  row.fetch_p95_ns = static_cast<double>(fetch.percentile_ns(0.95));
  row.fetch_mean_ns =
      fetch.count() > 0
          ? static_cast<double>(fetch.total_ns()) /
                static_cast<double>(fetch.count())
          : 0.0;
  // Request-to-grant latency is recorded at the acquirer (rank 1).
  row.lock_grant_p50_ns = static_cast<double>(
      reg.hist(1, "dsm.lock_grant_ns").percentile_ns(0.50));
  const DsmStatsSnapshot remote = cluster.node(1).stats().snapshot();
  row.fetches = remote.page_fetches;
  row.twins_created = remote.twins_created;
  row.diff_bytes_sent = remote.diff_bytes_sent;
  for (NodeId n = 0; n < 2; ++n) {
    row.protect_calls += cluster.node(n).stats().snapshot().protect_calls;
  }
  cluster.shutdown();
  return row;
}

bool write_json(const std::string& path, int pages, long page_kb,
                int epochs, const HotpathRow& row) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("dsm_hotpath");
  w.key("pages");
  w.value(static_cast<std::int64_t>(pages));
  w.key("page_kb");
  w.value(static_cast<std::int64_t>(page_kb));
  w.key("epochs");
  w.value(static_cast<std::int64_t>(epochs));
  w.key("fetch_p50_ns");
  w.value(row.fetch_p50_ns);
  w.key("fetch_mean_ns");
  w.value(row.fetch_mean_ns);
  w.key("fetch_p95_ns");
  w.value(row.fetch_p95_ns);
  w.key("lock_grant_p50_ns");
  w.value(row.lock_grant_p50_ns);
  // The gated counts (exact match against the baseline).
  w.key("fetches");
  w.value(row.fetches);
  w.key("twins_created");
  w.value(row.twins_created);
  w.key("diff_bytes_sent");
  w.value(row.diff_bytes_sent);
  w.key("protect_calls");
  w.value(row.protect_calls);
  w.end_object();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

/// Gate on the committed counts: the run's shape must match the baseline's
/// and every gated count must equal it exactly. Returns the failure count.
int check_baseline(const std::string& path, int pages, long page_kb,
                   int epochs, const HotpathRow& row) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dsm_hotpath: cannot open baseline %s\n",
                 path.c_str());
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = obs::parse_json(text.str());
  if (!parsed.is_ok() || !parsed.value().is_object() ||
      !parsed.value().has("fetches") || !parsed.value().has("twins_created") ||
      !parsed.value().has("diff_bytes_sent") ||
      !parsed.value().has("protect_calls")) {
    std::fprintf(stderr, "dsm_hotpath: baseline %s is not a hotpath table\n",
                 path.c_str());
    return 1;
  }
  const obs::JsonValue& base = parsed.value();
  const auto number = [&](const char* key) {
    return base.has(key) ? static_cast<std::int64_t>(base.at(key).number) : -1;
  };
  if (number("pages") != pages || number("page_kb") != page_kb ||
      number("epochs") != epochs) {
    std::fprintf(stderr,
                 "dsm_hotpath: baseline %s was measured with a different "
                 "--pages/--page-kb/--epochs\n",
                 path.c_str());
    return 1;
  }
  int regressions = 0;
  const struct {
    const char* key;
    std::int64_t fresh;
  } gates[] = {
      {"fetches", row.fetches},
      {"twins_created", row.twins_created},
      {"diff_bytes_sent", row.diff_bytes_sent},
      {"protect_calls", row.protect_calls},
  };
  for (const auto& gate : gates) {
    const std::int64_t want = number(gate.key);
    const bool regressed = gate.fresh != want;
    std::printf("gate %-15s %8lld vs baseline %8lld %s\n", gate.key,
                static_cast<long long>(gate.fresh),
                static_cast<long long>(want), regressed ? "MISMATCH" : "ok");
    if (regressed) ++regressions;
  }
  return regressions;
}

/// Median run by fetch mean: the representative row reported in the JSON.
HotpathRow median_row(std::vector<HotpathRow> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const HotpathRow& a, const HotpathRow& b) {
              return a.fetch_mean_ns < b.fetch_mean_ns;
            });
  return runs[runs.size() / 2];
}

}  // namespace
}  // namespace parade::dsm

int main(int argc, char** argv) {
  using namespace parade;
  using namespace parade::dsm;
  const int pages =
      static_cast<int>(bench::arg_long(argc, argv, "pages", 32));
  // Big pages by default: the serve, install and twin copies scale with the
  // page size, so the fetch latency is dominated by the data path rather
  // than by message overhead.
  const long page_kb = bench::arg_long(argc, argv, "page-kb", 64);
  const int epochs =
      static_cast<int>(bench::arg_long(argc, argv, "epochs", 48));
  const int locks = static_cast<int>(bench::arg_long(argc, argv, "locks", 4));
  const int reps = static_cast<int>(bench::arg_long(argc, argv, "reps", 3));
  const std::string out_path = bench::arg_string(argc, argv, "out", "");
  const std::string baseline = bench::arg_string(argc, argv, "baseline", "");
  // Pages above 256 KiB are out of a diff run header's reach.
  if (pages < 1 || page_kb < 4 || page_kb > 256 || page_kb % 4 != 0 ||
      epochs < 1 || locks < 0 || locks > 256 || reps < 1) {
    std::fprintf(stderr,
                 "usage: dsm_hotpath [--pages=32] [--page-kb=64] [--epochs=48] "
                 "[--locks=4] [--reps=3] [--out=PATH] [--baseline=PATH]\n");
    return 2;
  }
  const auto page_bytes = static_cast<std::size_t>(page_kb) * 1024;

  // Warm-up pass absorbs first-run effects (page-cache, lazy allocations).
  (void)run_once(pages, page_bytes, 2, locks);

  std::vector<HotpathRow> runs;
  for (int r = 0; r < reps; ++r) {
    runs.push_back(run_once(pages, page_bytes, epochs, locks));
  }
  const HotpathRow row = median_row(std::move(runs));

  std::printf(
      "DSM hot path, 2 nodes, %d x %ldKB pages, %d epochs (wall clock)\n",
      pages, page_kb, epochs);
  std::printf(
      "  fetch p50 %9.0f ns  mean %9.0f ns  p95 %9.0f ns  "
      "grant p50 %9.0f ns  (%lld fetches, %lld twins, %lld diff bytes, "
      "%lld mprotect calls)\n",
      row.fetch_p50_ns, row.fetch_mean_ns, row.fetch_p95_ns,
      row.lock_grant_p50_ns, static_cast<long long>(row.fetches),
      static_cast<long long>(row.twins_created),
      static_cast<long long>(row.diff_bytes_sent),
      static_cast<long long>(row.protect_calls));

  if (!out_path.empty() &&
      !write_json(out_path, pages, page_kb, epochs, row)) {
    std::fprintf(stderr, "dsm_hotpath: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!baseline.empty() &&
      check_baseline(baseline, pages, page_kb, epochs, row) != 0) {
    return 1;
  }
  return 0;
}

// Observability layer tests: registry snapshot/epoch-delta semantics, the
// trace ring, histograms, span propagation across a real DSM cluster (fault
// free and under fault injection), JSON export round-trips through the
// bundled parser, the parade_trace CLI contract, and a cross-layer
// consistency check that the counters reported by net, dsm, and runtime
// agree with each other on a real 4-node virtual cluster run.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "dsm/cluster.hpp"
#include "net/fault.hpp"
#include "obs/hist.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runtime/api.hpp"
#include "runtime/cluster.hpp"

namespace parade::obs {
namespace {

std::int64_t value_or0(const NodeSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

std::int64_t sum_prefix(const NodeSnapshot& snap, const std::string& prefix) {
  std::int64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(prefix, 0) == 0) total += value;
  }
  return total;
}

TEST(Metric, CounterAndTimerBasics) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);

  Timer t;
  {
    ScopedTimer scope(&t);
  }
  {
    ScopedTimer scope(nullptr);  // null timer: a no-op scope
  }
  EXPECT_EQ(t.count(), 1);
  EXPECT_GE(t.total_ns(), 0);
}

TEST(Trace, RingOverwritesOldest) {
  TraceRing ring(4);
  for (int i = 0; i < 6; ++i) {
    TraceEvent e;
    e.kind = TraceKind::kSend;
    e.tag = i;
    ring.emit(e);
  }
  EXPECT_EQ(ring.emitted(), 6u);
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 4u);  // capacity-bounded window
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i].tag, 2 + i);  // oldest first
}

TEST(Registry, EpochSlicesAreDeltas) {
  Registry reg;
  Counter& faults = reg.counter(0, "dsm.read_faults");
  Counter& idle = reg.counter(0, "dsm.diffs_created");

  faults.add(3);
  reg.close_epoch(0, 0);
  faults.add(2);
  reg.close_epoch(0, 1);
  reg.close_epoch(0, 2);  // nothing moved

  const auto epochs = reg.epochs(0);
  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_EQ(epochs[0].epoch, 0);
  EXPECT_EQ(epochs[0].deltas.at("dsm.read_faults"), 3);
  EXPECT_EQ(epochs[1].deltas.at("dsm.read_faults"), 2);
  // Counters that did not move in an interval are omitted from its slice.
  EXPECT_EQ(epochs[0].deltas.count("dsm.diffs_created"), 0u);
  EXPECT_TRUE(epochs[2].deltas.empty());
  (void)idle;
}

TEST(Registry, EpochCapBumpsDroppedCount) {
  Registry::Options options;
  options.max_epochs = 2;
  Registry reg(options);
  Counter& c = reg.counter(1, "x");
  for (int epoch = 0; epoch < 5; ++epoch) {
    c.add();
    reg.close_epoch(1, epoch);
  }
  EXPECT_EQ(reg.epochs(1).size(), 2u);
  EXPECT_EQ(reg.epochs_dropped(1), 3);
}

TEST(Registry, ResetNodeZeroesButKeepsHandles) {
  Registry reg;
  Counter& c = reg.counter(0, "net.send_msgs.dsm");
  Timer& t = reg.timer(0, "mp.recv_wait");
  c.add(7);
  t.add_ns(100);
  reg.close_epoch(0, 0);

  reg.reset_node(0);
  EXPECT_EQ(reg.snapshot(0).counters.at("net.send_msgs.dsm"), 0);
  EXPECT_EQ(reg.epochs(0).size(), 0u);

  c.add();  // the old handle still points at the live counter
  EXPECT_EQ(reg.snapshot(0).counters.at("net.send_msgs.dsm"), 1);
}

TEST(Registry, JsonExportRoundTrips) {
  Registry::Options options;
  options.trace_enabled = true;
  options.ring_capacity = 8;
  Registry reg(options);
  reg.counter(0, "dsm.read_faults").add(5);
  reg.counter(2, "net.send_bytes.mp").add(4096);
  reg.timer(0, "rt.barrier_wait.t0").add_ns(1500);
  reg.close_epoch(0, 0);
  reg.emit(TraceKind::kBarrier, 0, 2, 12.5);

  auto doc = parse_json(reg.to_json("roundtrip"));
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const JsonValue& root = doc.value();
  EXPECT_EQ(root.at("schema").string, "parade.metrics.v1");
  EXPECT_EQ(root.at("label").string, "roundtrip");

  ASSERT_EQ(root.at("nodes").array.size(), 2u);
  const JsonValue& node0 = root.at("nodes").array[0];
  EXPECT_EQ(node0.at("node").as_int(), 0);
  EXPECT_EQ(node0.at("counters").at("dsm.read_faults").as_int(), 5);
  EXPECT_EQ(node0.at("timers").at("rt.barrier_wait.t0").at("ns").as_int(),
            1500);
  ASSERT_EQ(node0.at("epochs").array.size(), 1u);
  EXPECT_EQ(node0.at("epochs")
                .array[0]
                .at("deltas")
                .at("dsm.read_faults")
                .as_int(),
            5);
  EXPECT_EQ(root.at("nodes").array[1].at("counters").at("net.send_bytes.mp")
                .as_int(),
            4096);

  const JsonValue& trace = root.at("trace");
  EXPECT_TRUE(trace.at("enabled").boolean);
  ASSERT_EQ(trace.at("events").array.size(), 1u);
  EXPECT_EQ(trace.at("events").array[0].at("kind").string, "barrier");
  EXPECT_DOUBLE_EQ(trace.at("events").array[0].at("vtime").number, 12.5);
}

TEST(Registry, ExportToWritesCsvByExtension) {
  Registry reg;
  reg.counter(0, "dsm.barriers").add(2);
  const auto dir = std::filesystem::temp_directory_path() / "parade-obs-test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "metrics.csv").string();
  ASSERT_TRUE(reg.export_to(path, "csv").is_ok());

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("node,kind,name,value,count"), std::string::npos);
  EXPECT_NE(text.find("0,counter,dsm.barriers,2,"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_FALSE(parse_json("{").is_ok());
  EXPECT_FALSE(parse_json("{\"a\": 1} trailing").is_ok());
  EXPECT_FALSE(parse_json("[1, 2,]").is_ok());
  auto ok = parse_json(R"({"a": [1, -2.5, "x\n", true, null]})");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().at("a").array[2].string, "x\n");
}

// One parallel_for over DSM-shared data on a 4-node virtual cluster: the
// counters independently reported by the net, dsm, and runtime layers must
// tell one consistent story.
TEST(CrossLayer, CountersAgreeOnVirtualCluster) {
  constexpr int kNodes = 4;
  constexpr long kDoubles = 8 * 512;  // 8 pages of doubles

  RuntimeConfig config;
  config.nodes = kNodes;
  config.with_node_config(vtime::NodeConfig::k2Thread2Cpu);
  config.cpu_scale = 0.0;  // deterministic: modeled costs only
  config.dsm.pool_bytes = 4 << 20;
  run_virtual_cluster_s(config, [] {
    auto* data = shmalloc_array<double>(kDoubles);
    barrier();
    double replica = 0.0;
    parallel([&] {
      parallel_for(0, kDoubles, [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) data[i] = static_cast<double>(i);
      });
      // Two user-combine allreduces per node: one per hybrid collective.
      (void)team_reduce(1.0, mp::Op::kSum);
      team_update(&replica, 1.0, mp::Op::kSum);
    });
    double sum = 0.0;
    for (long i = 0; i < kDoubles; i += 512) sum += data[i];
    barrier();
  });

  auto& reg = Registry::instance();
  std::vector<NodeSnapshot> snaps;
  for (NodeId n = 0; n < kNodes; ++n) snaps.push_back(reg.snapshot(n));

  std::int64_t sent_msgs = 0, recv_msgs = 0, sent_bytes = 0, recv_bytes = 0;
  std::int64_t fetches = 0, serves = 0, diff_bytes = 0;
  for (const NodeSnapshot& snap : snaps) {
    sent_msgs += sum_prefix(snap, "net.send_msgs.");
    recv_msgs += sum_prefix(snap, "net.recv_msgs.");
    sent_bytes += sum_prefix(snap, "net.send_bytes.");
    recv_bytes += sum_prefix(snap, "net.recv_bytes.");
    fetches += value_or0(snap, "dsm.page_fetches");
    serves += value_or0(snap, "dsm.page_serves");
    diff_bytes += value_or0(snap, "dsm.diff_bytes_sent");

    // Runtime layer: exactly one parallel region ran on every node, and the
    // per-class and per-peer views of the same sends must agree.
    EXPECT_EQ(value_or0(snap, "rt.parallel_regions"), 1);
    EXPECT_EQ(sum_prefix(snap, "net.send_bytes_to."),
              sum_prefix(snap, "net.send_bytes."));
    EXPECT_EQ(sum_prefix(snap, "net.send_msgs_to."),
              sum_prefix(snap, "net.send_msgs."));

    // MP layer: each hybrid collective is one counted allreduce (plus its
    // closing bcast), and each of the four entries is timed.
    EXPECT_EQ(value_or0(snap, "mp.allreduces"), 2);
    EXPECT_EQ(value_or0(snap, "mp.bcasts"), 2);
    EXPECT_EQ(snap.hists.at("mp.collective_ns").count, 4);
  }

  // Every node saw the same barrier sequence.
  for (const NodeSnapshot& snap : snaps) {
    EXPECT_EQ(value_or0(snap, "dsm.barriers"),
              value_or0(snaps[0], "dsm.barriers"));
  }
  EXPECT_GE(value_or0(snaps[0], "dsm.barriers"), 3);

  // The in-process fabric delivers every send (including self-sends), so the
  // net layer's send and receive totals must balance exactly.
  EXPECT_GT(sent_msgs, 0);
  EXPECT_EQ(sent_msgs, recv_msgs);
  EXPECT_EQ(sent_bytes, recv_bytes);

  // Cross-layer: every page fetched by one node was served by another, the
  // loop touched remote pages at all, and dsm diff payloads are a subset of
  // the bytes the net layer shipped.
  EXPECT_GT(fetches, 0);
  EXPECT_EQ(fetches, serves);
  EXPECT_LE(diff_bytes, sent_bytes);

  // The singleton's JSON export reflects the same run.
  auto doc = parse_json(reg.to_json("cross_layer"));
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const auto& nodes = doc.value().at("nodes").array;
  ASSERT_GE(nodes.size(), static_cast<std::size_t>(kNodes));
  for (const JsonValue& node : nodes) {
    const NodeId id = static_cast<NodeId>(node.at("node").as_int());
    if (id >= kNodes) continue;
    EXPECT_EQ(node.at("counters").at("dsm.barriers").as_int(),
              value_or0(snaps[static_cast<std::size_t>(id)], "dsm.barriers"));
  }
}

TEST(Hist, BucketEdgesAndPercentiles) {
  // Values below one octave (2^kHistSubBits) map exactly.
  EXPECT_EQ(hist_bucket_index(0), 0);
  EXPECT_EQ(hist_bucket_index(1), 1);
  EXPECT_EQ(hist_bucket_index(3), 3);
  EXPECT_EQ(hist_bucket_index(kHistSubBuckets - 1), kHistSubBuckets - 1);
  EXPECT_EQ(hist_bucket_upper_ns(0), 0);
  EXPECT_EQ(hist_bucket_upper_ns(3), 3);
  // Above that, 8 linear sub-buckets per octave: the mapping stays monotone
  // and each bucket spans value/8.
  EXPECT_EQ(hist_bucket_index(8), 8);
  EXPECT_EQ(hist_bucket_upper_ns(8), 8);
  EXPECT_EQ(hist_bucket_index(16), 16);
  EXPECT_EQ(hist_bucket_upper_ns(hist_bucket_index(17)), 17);
  EXPECT_EQ(hist_bucket_index(100), hist_bucket_index(103));
  EXPECT_NE(hist_bucket_index(100), hist_bucket_index(127));
  EXPECT_EQ(hist_bucket_upper_ns(hist_bucket_index(100)), 103);
  // The top reachable bucket's edge saturates.
  EXPECT_EQ(hist_bucket_upper_ns(hist_bucket_index(INT64_MAX)), INT64_MAX);
  for (std::int64_t v : {1, 7, 8, 9, 100, 9000, 1 << 20}) {
    EXPECT_EQ(hist_bucket_index(v + 1) - hist_bucket_index(v) <= 1, true)
        << v;  // monotone, no gaps
    EXPECT_GE(hist_bucket_upper_ns(hist_bucket_index(v)), v) << v;
  }

  Histogram h;
  EXPECT_EQ(h.percentile_ns(0.50), 0);  // empty
  // 90 fast samples and 10 slow ones: the p50 lands in the fast bucket, the
  // p99 in the slow one, and every percentile is capped at the observed max.
  for (int i = 0; i < 90; ++i) h.record_ns(100);   // bucket [96, 103]
  for (int i = 0; i < 10; ++i) h.record_ns(9000);  // bucket [8192, 9215]
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.max_ns(), 9000);
  EXPECT_EQ(h.total_ns(), 90 * 100 + 10 * 9000);
  EXPECT_EQ(h.percentile_ns(0.50), 103);
  EXPECT_EQ(h.percentile_ns(0.99), 9000);  // bucket edge 9215, capped at max
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max_ns(), 0);
  EXPECT_EQ(h.percentile_ns(0.95), 0);
}

TEST(Hist, ScopedHistTimerRecordsBothHandles) {
  Histogram h;
  Timer t;
  {
    ScopedHistTimer scope(&h, &t);
  }
  {
    ScopedHistTimer scope(nullptr);  // inert, mirrors ScopedTimer
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(t.count(), 1);
  EXPECT_GE(h.total_ns(), 0);
}

TEST(Registry, TraceDroppedCountsRingOverwrites) {
  Registry::Options options;
  options.trace_enabled = true;
  options.ring_capacity = 4;
  Registry reg(options);
  for (int i = 0; i < 10; ++i) reg.emit(TraceKind::kSend, 0, i, 0.0);
  EXPECT_EQ(reg.trace_dropped(), 6);
  EXPECT_EQ(reg.snapshot(0).counters.at("obs.trace.dropped"), 6);

  auto doc = parse_json(reg.to_json("dropped"));
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc.value().at("trace").at("dropped").as_int(), 6);

  reg.reset_trace();
  EXPECT_EQ(reg.trace_dropped(), 0);
  EXPECT_TRUE(reg.trace_events().empty());
}

// The CSV rows for timers and histogram percentiles must carry the same
// numbers as the JSON export (docs/OBSERVABILITY.md promises row-by-row
// parity so downstream tooling can consume either).
TEST(Registry, CsvMatchesJsonForTimersAndHists) {
  Registry reg;
  reg.timer(1, "mp.recv_wait").add_ns(12345);
  Histogram& h = reg.hist(1, "dsm.fetch_ns");
  for (int i = 0; i < 8; ++i) h.record_ns(1000);
  h.record_ns(70000);

  auto doc = parse_json(reg.to_json("parity"));
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const JsonValue* node1 = nullptr;
  for (const JsonValue& node : doc.value().at("nodes").array) {
    if (node.at("node").as_int() == 1) node1 = &node;
  }
  ASSERT_NE(node1, nullptr);
  const JsonValue& jh = node1->at("hists").at("dsm.fetch_ns");
  EXPECT_EQ(jh.at("count").as_int(), 9);
  EXPECT_EQ(jh.at("max_ns").as_int(), 70000);

  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("1,timer_ns,mp.recv_wait,12345,1"), std::string::npos)
      << csv;
  for (const char* row : {"hist_p50_ns", "hist_p95_ns", "hist_p99_ns"}) {
    const std::string jkey = std::string(row).substr(5);  // -> p50_ns ...
    const std::string expect = std::string("1,") + row + ",dsm.fetch_ns," +
                               std::to_string(jh.at(jkey).as_int()) + ",9";
    EXPECT_NE(csv.find(expect), std::string::npos) << expect << "\n" << csv;
  }
  EXPECT_NE(csv.find("1,hist_max_ns,dsm.fetch_ns,70000,9"), std::string::npos)
      << csv;
}

// PARADE_RANK makes every export path rank-suffixed before the extension so
// the launcher's processes write distinct files; PARADE_TRACE_OUT gets the
// same treatment as PARADE_METRICS.
TEST(Registry, ExportIfConfiguredSuffixesRank) {
  const auto dir = std::filesystem::temp_directory_path() / "parade-obs-rank";
  std::filesystem::create_directories(dir);
  setenv("PARADE_RANK", "3", 1);
  setenv("PARADE_METRICS", (dir / "m.json").string().c_str(), 1);
  setenv("PARADE_TRACE_OUT", (dir / "t.json").string().c_str(), 1);
  Registry reg;
  reg.counter(0, "dsm.barriers").add(1);
  reg.export_if_configured("rank_suffix");
  unsetenv("PARADE_RANK");
  unsetenv("PARADE_METRICS");
  unsetenv("PARADE_TRACE_OUT");
  EXPECT_TRUE(std::filesystem::exists(dir / "m.rank3.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "t.rank3.json"));
  std::filesystem::remove_all(dir);
}

TEST(Span, NestingAndAmbientContext) {
  auto& reg = Registry::instance();
  reg.set_trace_enabled(true);
  reg.reset_trace();
  EXPECT_FALSE(current_span_context().valid());
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    ScopedSpan outer(TraceKind::kRegion, 0, 0);
    ASSERT_TRUE(outer.active());
    outer_id = outer.context().span_id;
    EXPECT_EQ(current_span_context().span_id, outer_id);
    EXPECT_EQ(outer.context().trace_id, outer_id);  // roots its own trace
    {
      ScopedSpan inner(TraceKind::kLock, 0, 7);
      inner_id = inner.context().span_id;
      EXPECT_EQ(inner.context().trace_id, outer_id);  // inherits the trace
      EXPECT_EQ(current_span_context().span_id, inner_id);
    }
    EXPECT_EQ(current_span_context().span_id, outer_id);  // restored
  }
  EXPECT_FALSE(current_span_context().valid());

  const auto events = reg.trace_events();
  ASSERT_EQ(events.size(), 2u);  // inner closes first
  EXPECT_EQ(events[0].span_id, inner_id);
  EXPECT_EQ(events[0].parent_span, outer_id);
  EXPECT_EQ(events[1].span_id, outer_id);
  EXPECT_EQ(events[1].parent_span, 0u);
  for (const TraceEvent& e : events) EXPECT_GE(e.end_wall_ns, e.wall_ns);

  reg.reset_trace();
  reg.set_trace_enabled(false);
  {
    ScopedSpan inert(TraceKind::kRegion, 0, 0);
    EXPECT_FALSE(inert.active());
    EXPECT_FALSE(current_span_context().valid());
  }
  EXPECT_TRUE(reg.trace_events().empty());
}

// Shared workload for the span-propagation tests: rank 0 seeds a page, the
// other ranks fault it in remotely, and two more barriers close the run.
void run_span_workload(dsm::DsmCluster& cluster) {
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    if (rank == 0) *data = 17;
    cluster.node(rank).barrier();
    EXPECT_EQ(*data, 17);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

/// True when some page_serve span's parent is a page_fault span on a
/// *different* node sharing the same trace id — the cross-node causal edge
/// the wire-context piggyback exists to create.
bool has_cross_node_fetch_link(const std::vector<TraceEvent>& events) {
  for (const TraceEvent& serve : events) {
    if (serve.kind != TraceKind::kPageServe || serve.parent_span == 0) {
      continue;
    }
    for (const TraceEvent& fault : events) {
      if (fault.kind == TraceKind::kPageFault &&
          fault.span_id == serve.parent_span && fault.node != serve.node &&
          fault.trace_id == serve.trace_id) {
        return true;
      }
    }
  }
  return false;
}

TEST(SpanPropagation, RemoteFetchLinksRequesterAndServer) {
  auto& reg = Registry::instance();
  reg.set_trace_enabled(true);
  reg.reset_trace();

  dsm::DsmConfig config;
  config.pool_bytes = 4 << 20;
  dsm::DsmCluster cluster(Topology::cluster(4), config);
  run_span_workload(cluster);

  const auto events = reg.trace_events();
  reg.reset_trace();
  reg.set_trace_enabled(false);

  EXPECT_TRUE(has_cross_node_fetch_link(events));

  // Every node's barrier span for epoch E shares the deterministic epoch
  // trace id, computed with no communication.
  for (std::int64_t epoch = 0; epoch < 2; ++epoch) {
    std::set<NodeId> nodes_seen;
    for (const TraceEvent& e : events) {
      if (e.kind == TraceKind::kBarrier && e.tag == epoch) {
        EXPECT_EQ(e.trace_id, epoch_trace_id(epoch));
        nodes_seen.insert(e.node);
      }
    }
    EXPECT_EQ(nodes_seen.size(), 4u) << "epoch " << epoch;
  }
}

TEST(SpanPropagation, SurvivesDropAndReorderFaults) {
  auto& reg = Registry::instance();
  reg.set_trace_enabled(true);
  reg.reset_trace();

  dsm::DsmConfig config;
  config.pool_bytes = 4 << 20;
  dsm::DsmCluster cluster(Topology::cluster(4), config,
                          net::default_chaos_plan(11));
  run_span_workload(cluster);

  const auto events = reg.trace_events();
  reg.reset_trace();
  reg.set_trace_enabled(false);

  // Retransmissions and reordering must not corrupt causality: the remote
  // fetch still links, and no span ends before it begins.
  EXPECT_TRUE(has_cross_node_fetch_link(events));
  for (const TraceEvent& e : events) {
    if (e.end_wall_ns != 0) {
      EXPECT_GE(e.end_wall_ns, e.wall_ns);
    }
  }
}

// ---- parade_trace CLI contract ----

std::string run_command(const std::string& command, int* exit_code) {
  std::string output;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return output;
  }
  char buffer[4096];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return output;
}

std::string parade_trace_bin() {
  return std::string(PARADE_BINARY_DIR) + "/src/verify/parade_trace";
}

TraceEvent make_span(TraceKind kind, NodeId node, Tag tag,
                     std::uint64_t trace_id, std::uint64_t span_id,
                     std::uint64_t parent, std::int64_t begin,
                     std::int64_t end) {
  TraceEvent e;
  e.kind = kind;
  e.node = node;
  e.tag = tag;
  e.trace_id = trace_id;
  e.span_id = span_id;
  e.parent_span = parent;
  e.wall_ns = begin;
  e.end_wall_ns = end;
  return e;
}

TEST(ParadeTraceCli, MergesDumpsChecksAndEmitsChrome) {
  const auto dir = std::filesystem::temp_directory_path() / "parade-trace-cli";
  std::filesystem::create_directories(dir);

  // Dump A: node 0's fault span plus its epoch-0 barrier span.
  Registry::Options options;
  options.trace_enabled = true;
  {
    Registry reg(options);
    reg.emit_event(
        make_span(TraceKind::kPageFault, 0, 5, 0x100, 0x100, 0, 1000, 9000));
    reg.emit_event(make_span(TraceKind::kBarrier, 0, 0, epoch_trace_id(0),
                             0x101, 0, 10000, 30000));
    ASSERT_TRUE(reg.export_to((dir / "a.json").string(), "a").is_ok());
  }
  // Dump B: node 1 serves node 0's fault (cross-node child) and arrives last
  // at the same barrier.
  {
    Registry reg(options);
    reg.emit_event(
        make_span(TraceKind::kPageServe, 1, 5, 0x100, 0x200, 0x100, 2000,
                  3000));
    reg.emit_event(make_span(TraceKind::kBarrier, 1, 0, epoch_trace_id(0),
                             0x201, 0, 25000, 30000));
    ASSERT_TRUE(reg.export_to((dir / "b.json").string(), "b").is_ok());
  }

  int code = -1;
  const std::string chrome = (dir / "chrome.json").string();
  const std::string out = run_command(
      parade_trace_bin() + " --check --chrome=" + chrome + " " +
          (dir / "a.json").string() + " " + (dir / "b.json").string(),
      &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("cross-node link"), std::string::npos) << out;
  EXPECT_NE(out.find("check OK"), std::string::npos) << out;
  // Node 1 arrived last, so it is the barrier critical path; node 0's slack
  // is its 15 µs head start.
  EXPECT_NE(out.find("barrier-critical-path epoch=0 run=0 critical_node=1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("node=0 wait_ns=20000 slack_ns=15000"), std::string::npos)
      << out;

  // The Chrome artifact parses and contains complete slices plus one
  // flow-start/flow-finish pair for the cross-node edge.
  std::ifstream in(chrome);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto doc = parse_json(text);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  int slices = 0, flow_starts = 0, flow_ends = 0;
  for (const JsonValue& ev : doc.value().at("traceEvents").array) {
    const std::string& ph = ev.at("ph").string;
    if (ph == "X") ++slices;
    if (ph == "s") ++flow_starts;
    if (ph == "f") ++flow_ends;
  }
  EXPECT_EQ(slices, 4);
  EXPECT_EQ(flow_starts, 1);
  EXPECT_EQ(flow_ends, 1);

  std::filesystem::remove_all(dir);
}

TEST(ParadeTraceCli, CheckFailsOnOrphanParent) {
  const auto dir =
      std::filesystem::temp_directory_path() / "parade-trace-orphan";
  std::filesystem::create_directories(dir);
  Registry::Options options;
  options.trace_enabled = true;
  Registry reg(options);
  reg.emit_event(
      make_span(TraceKind::kPageServe, 2, 0, 0x900, 0x901, 0x999, 100, 200));
  ASSERT_TRUE(reg.export_to((dir / "orphan.json").string(), "o").is_ok());

  int code = -1;
  const std::string out = run_command(
      parade_trace_bin() + " --check " + (dir / "orphan.json").string(),
      &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("orphan parent"), std::string::npos) << out;
  std::filesystem::remove_all(dir);
}

TEST(ParadeTraceCli, RejectsGarbageInput) {
  const auto dir = std::filesystem::temp_directory_path() / "parade-trace-bad";
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "bad.json") << "{ not json";
  int code = -1;
  run_command(parade_trace_bin() + " " + (dir / "bad.json").string(), &code);
  EXPECT_EQ(code, 2);
  run_command(parade_trace_bin() + " " + (dir / "missing.json").string(),
              &code);
  EXPECT_EQ(code, 2);
  run_command(parade_trace_bin(), &code);  // no dumps
  EXPECT_EQ(code, 2);
  run_command(parade_trace_bin() + " --bogus x.json", &code);
  EXPECT_EQ(code, 2);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace parade::obs

// Whole-program interference analysis tests (docs/ANALYZER.md
// "Region-sequence graph"): phase/step decomposition of the program into
// barrier-delimited intervals, the May-Happen-in-Parallel rules, the
// per-phase sharing-pattern classification (read-mostly / producer-consumer
// / migratory / ping-pong) as the cost model prices it, the two
// cross-region diagnostics in both golden directions, and the static
// message-cost report: its shape and the affine page spans it charges.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "translator/analyze.hpp"
#include "translator/interfere.hpp"
#include "translator/parser.hpp"
#include "translator/token.hpp"

namespace parade::translator {
namespace {

struct Analyzed {
  TranslationUnit unit;
  Analysis analysis;
};

Analyzed analyze_program(const std::string& source,
                         AnalyzeOptions options = {}) {
  auto tokens = lex(source);
  EXPECT_TRUE(tokens.is_ok()) << tokens.status().to_string();
  auto unit = parse(tokens.value());
  EXPECT_TRUE(unit.is_ok()) << unit.status().to_string();
  Analyzed out{std::move(unit).value(), {}};
  out.analysis = analyze(out.unit, options);
  return out;
}

const Diagnostic* find_diag(const Analysis& analysis, const char* code) {
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

/// The cost model's per-phase page entries for `symbol`, one
/// `ConstructCost::detail` ("<symbol> [<pattern>]") per phase that touches
/// it, keyed by phase index.
std::map<int, std::string> phase_patterns(const Analyzed& p,
                                          const std::string& symbol) {
  const CostReport report =
      estimate_message_costs(p.unit, {}, p.analysis, /*nodes=*/2);
  std::map<int, std::string> out;
  const std::string prefix = symbol + " [";
  for (const ConstructCost& c : report.constructs) {
    if (c.kind.rfind("phase ", 0) != 0 || c.detail.rfind(prefix, 0) != 0) {
      continue;
    }
    out[std::stoi(c.kind.substr(6))] =
        c.detail.substr(prefix.size(), c.detail.size() - prefix.size() - 1);
  }
  return out;
}

// Two worksharing phases: u is produced in the first and consumed in the
// second; v is written once and never read again.
const char* kTwoPhaseProgram =
    "double u[1024];\n"
    "double v[1024];\n"
    "int main(void) {\n"
    "  int i;\n"
    "  int j;\n"
    "  #pragma omp parallel for\n"
    "  for (i = 0; i < 1024; i++) { u[i] = 1.0; }\n"
    "  #pragma omp parallel for\n"
    "  for (j = 0; j < 1024; j++) { v[j] = u[j] * 2.0; }\n"
    "  return 0;\n"
    "}\n";

// ---------------------------------------------------------------------------
// Region-sequence graph shape

TEST(RegionSeq, PhasesSplitAtBarriersInProgramOrder) {
  const Analyzed p = analyze_program(kTwoPhaseProgram);
  const RegionSequence seq = build_region_sequence(p.unit, p.analysis);
  EXPECT_GE(seq.phase_count, 2);

  // The write to u and the read of u sit in different phases (a combined
  // `parallel for` ends with barriers), in program order.
  int u_write_phase = -1;
  int u_read_phase = -1;
  for (const SeqAccess& a : seq.accesses) {
    if (a.symbol != "u") continue;
    if (a.write) u_write_phase = a.phase;
    if (!a.write) u_read_phase = a.phase;
  }
  ASSERT_GE(u_write_phase, 0);
  ASSERT_GE(u_read_phase, 0);
  EXPECT_LT(u_write_phase, u_read_phase);

  // Both worksharing bodies are parallel, partitioned by the loop variable.
  for (const SeqAccess& a : seq.accesses) {
    if (a.symbol == "u" && a.write) {
      EXPECT_TRUE(a.parallel);
      EXPECT_TRUE(a.partitioned);
    }
  }
}

// ---------------------------------------------------------------------------
// May-Happen-in-Parallel rules

SeqAccess access(int phase, int step, bool parallel,
                 std::vector<std::string> locks = {}, int serial_guard = -1,
                 bool master = false) {
  SeqAccess a;
  a.symbol = "x";
  a.write = true;
  a.phase = phase;
  a.step = step;
  a.parallel = parallel;
  a.serial_guard = serial_guard;
  a.master_guard = master;
  a.locks = std::move(locks);
  return a;
}

TEST(Mhp, SameStepUnguardedParallelAccessesOverlap) {
  EXPECT_TRUE(may_happen_in_parallel(access(0, 0, true), access(0, 0, true)));
}

TEST(Mhp, BarriersAndSerialContextOrderAccesses) {
  // Different steps: a barrier (or node-local order point) sits between.
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, true), access(1, 1, true)));
  // Serial code never overlaps anything.
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, false), access(0, 0, true)));
}

TEST(Mhp, CommonLockSerializesDisjointLocksDoNot) {
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, true, {"alpha"}),
                                      access(0, 0, true, {"alpha"})));
  EXPECT_TRUE(may_happen_in_parallel(access(0, 0, true, {"alpha"}),
                                     access(0, 0, true, {"beta"})));
}

TEST(Mhp, MasterAndSameSingleInstanceSerialize) {
  // Master is global thread 0 everywhere: two master bodies never overlap.
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, true, {}, 3, true),
                                      access(0, 0, true, {}, 7, true)));
  // The same single instance executes once; different instances may overlap
  // when one of them is nowait.
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, true, {}, 5),
                                      access(0, 0, true, {}, 5)));
  EXPECT_TRUE(may_happen_in_parallel(access(0, 0, true, {}, 5),
                                     access(0, 0, true, {}, 6)));
}

// ---------------------------------------------------------------------------
// Sharing-pattern classification, as the cost model attributes it

TEST(Classify, ProducerConsumerAndReadMostlyAcrossPhases) {
  const Analyzed p = analyze_program(kTwoPhaseProgram);
  const RegionSequence seq = build_region_sequence(p.unit, p.analysis);
  int u_write_phase = -1;
  int u_read_phase = -1;
  for (const SeqAccess& a : seq.accesses) {
    if (a.symbol != "u") continue;
    (a.write ? u_write_phase : u_read_phase) = a.phase;
  }
  const std::map<int, std::string> patterns = phase_patterns(p, "u");
  ASSERT_EQ(patterns.count(u_write_phase), 1u);
  EXPECT_EQ(patterns.at(u_write_phase),
            to_string(SharingPattern::kProducerConsumer));
  ASSERT_EQ(patterns.count(u_read_phase), 1u);
  EXPECT_EQ(patterns.at(u_read_phase), to_string(SharingPattern::kReadMostly));
}

TEST(Classify, LockConvoyedUnpartitionedWritesArePingPong) {
  // Every thread funnels read-modify-write traffic over the whole array
  // through rotating critical sections: no data race, but the pages bounce
  // node-to-node each acquisition.
  const Analyzed p = analyze_program(
      "double acc[512];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 64; i++) {\n"
      "    #pragma omp critical\n"
      "    { for (j = 0; j < 512; j++) { acc[j] = acc[j] + 1.0; } }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  bool found = false;
  for (const auto& [phase, pattern] : phase_patterns(p, "acc")) {
    (void)phase;
    if (pattern == to_string(SharingPattern::kPingPong)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Classify, SoleWriterAcrossMultiplePhasesIsMigratory) {
  // The master thread alone rewrites the array in two separate phases: the
  // ideal home follows the writer, no phase ever ping-pongs.
  const Analyzed p = analyze_program(
      "double state[1024];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp master\n"
      "    { for (i = 0; i < 1024; i++) { state[i] = 1.0; } }\n"
      "    #pragma omp barrier\n"
      "    #pragma omp master\n"
      "    { for (i = 0; i < 1024; i++) { state[i] = state[i] * 2.0; } }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  std::size_t migratory = 0;
  for (const auto& [phase, pattern] : phase_patterns(p, "state")) {
    (void)phase;
    if (pattern == to_string(SharingPattern::kMigratory)) ++migratory;
  }
  EXPECT_GE(migratory, 2u);
}

// ---------------------------------------------------------------------------
// Cross-region diagnostics, golden in both directions

// Two critical sections with different names write the same array: their
// locks do not compose, so the writes may overlap.
const char* kNonComposingCriticals =
    "double buf[1024];\n"
    "int main(void) {\n"
    "  int i;\n"
    "  int j;\n"
    "  #pragma omp parallel\n"
    "  {\n"
    "    #pragma omp critical (alpha)\n"
    "    { for (i = 0; i < 1024; i++) { buf[i] = buf[i] + 1.0; } }\n"
    "    #pragma omp critical (beta)\n"
    "    { for (j = 0; j < 1024; j++) { buf[j] = buf[j] * 2.0; } }\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

TEST(CrossRegion, NonComposingCriticalNamesAreFlagged) {
  const Analyzed p = analyze_program(kNonComposingCriticals);
  const Diagnostic* d = find_diag(p.analysis, kDiagRaceCrossRegion);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->var, "buf");
  EXPECT_EQ(d->line, 10);
  EXPECT_GT(d->column, 0);
}

TEST(CrossRegion, SharedCriticalNameComposesAndIsClean) {
  const Analyzed p = analyze_program(
      "double buf[1024];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp critical (alpha)\n"
      "    { for (i = 0; i < 1024; i++) { buf[i] = buf[i] + 1.0; } }\n"
      "    #pragma omp critical (alpha)\n"
      "    { for (j = 0; j < 1024; j++) { buf[j] = buf[j] * 2.0; } }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(p.analysis, kDiagRaceCrossRegion), nullptr);
}

TEST(CrossRegion, NowaitWriteReadByLaterConstructInSamePhase) {
  const Analyzed p = analyze_program(
      "double u[2048];\n"
      "double v[2048];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp for nowait\n"
      "    for (i = 0; i < 2048; i++) { u[i] = 1.0; }\n"
      "    #pragma omp for\n"
      "    for (j = 0; j < 2048; j++) { v[j] = u[j]; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(p.analysis, kDiagNowaitCrossRegionRead);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->var, "u");
  EXPECT_EQ(d->line, 11);
}

TEST(CrossRegion, ImpliedBarrierPublishesTheWrite) {
  const Analyzed p = analyze_program(
      "double u[2048];\n"
      "double v[2048];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp for\n"
      "    for (i = 0; i < 2048; i++) { u[i] = 1.0; }\n"
      "    #pragma omp for\n"
      "    for (j = 0; j < 2048; j++) { v[j] = u[j]; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(p.analysis, kDiagNowaitCrossRegionRead), nullptr);
}

// ---------------------------------------------------------------------------
// Static message-cost report

TEST(CostModel, ReportPricesConstructsAndSerializes) {
  const Analyzed p = analyze_program(kTwoPhaseProgram);
  const CostReport report =
      estimate_message_costs(p.unit, {}, p.analysis, /*nodes=*/4);
  EXPECT_EQ(report.nodes, 4);
  ASSERT_FALSE(report.constructs.empty());
  // The producer phase must predict diff traffic; some construct fetches u
  // remotely in the consumer phase.
  EXPECT_GT(report.total_diffs_created(), 0.0);
  EXPECT_GT(report.total_page_fetches(), 0.0);
  // Entries are sorted by line for deterministic output.
  EXPECT_TRUE(std::is_sorted(report.constructs.begin(),
                             report.constructs.end(),
                             [](const ConstructCost& a, const ConstructCost& b) {
                               return a.line < b.line;
                             }));

  const std::string json = report.to_json("two_phase.c");
  auto doc = obs::parse_json(json);
  ASSERT_TRUE(doc.is_ok()) << json;
  EXPECT_EQ(doc.value().at("nodes").as_int(), 4);
  ASSERT_TRUE(doc.value().at("totals").is_object());
  EXPECT_TRUE(doc.value().at("totals").has("dsm.page_fetches"));
  EXPECT_TRUE(doc.value().at("totals").has("dsm.diffs_created"));
  EXPECT_TRUE(doc.value().at("totals").has("dsm.lock_acquires"));

  const std::string text = report.to_text("two_phase.c");
  EXPECT_NE(text.find("static message-cost estimate"), std::string::npos);
}

/// Page span the cost model charges a symbol written by one partitioned
/// worksharing phase: such a phase diffs pages x (N-1)/N, so with one-byte
/// pages on two nodes the span in bytes is twice the predicted diffs.
double partitioned_span_bytes(const Analyzed& p, const std::string& symbol) {
  AnalyzeOptions options;
  options.page_bytes = 1;
  const CostReport report =
      estimate_message_costs(p.unit, options, p.analysis, /*nodes=*/2);
  const std::string detail = symbol + " [migratory]";
  for (const ConstructCost& c : report.constructs) {
    if (c.detail == detail) return 2 * c.diffs_created;
  }
  ADD_FAILURE() << "no partitioned phase entry for " << symbol;
  return 0;
}

TEST(CostModel, AffineArrayFootprintFromLiteralBounds) {
  const Analyzed p = analyze_program(
      "double grid[64][64];\n"
      "int main(void) {\n"
      "  int i, j;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 16; i++) {\n"
      "    for (j = 0; j < 8; j++) {\n"
      "      grid[i][j] = 1.0;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  ASSERT_EQ(p.analysis.globals.at("grid").byte_size, 64u * 64u * 8u);
  // 16 * 8 iterations touch one 8-byte element each; the affine footprint is
  // far below the declared 64*64*8 bytes.
  EXPECT_EQ(partitioned_span_bytes(p, "grid"), 16.0 * 8.0 * 8.0);
}

TEST(CostModel, SymbolicBoundResolvedFromFileScopeLiteral) {
  const Analyzed p = analyze_program(
      "static long n = 100;\n"
      "double v[4096];\n"
      "int main(void) {\n"
      "  long i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < n; i++) {\n"
      "    v[i] = 1.0;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(partitioned_span_bytes(p, "v"), 100.0 * 8.0);
}

TEST(CostModel, LockBoundConstructsChargeAcquires) {
  const Analyzed p = analyze_program(
      "double acc[512];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 64; i++) {\n"
      "    #pragma omp critical\n"
      "    { for (j = 0; j < 512; j++) { acc[j] = acc[j] + 1.0; } }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const CostReport report =
      estimate_message_costs(p.unit, {}, p.analysis, /*nodes=*/2);
  EXPECT_GT(report.total_lock_acquires(), 0.0);
}

}  // namespace
}  // namespace parade::translator

// Semantic-analyzer tests: golden diagnostics over a small OpenMP corpus
// (racy, clean, shadowed, threadprivate, reduction-misuse, ...), the
// size-aware hybrid collective-vs-DSM selection in both directions (with the
// analyzer's decision, its sync.dsm_fallback note and the emitted lowering
// agreeing at every site), the strict --threshold parser, a regression check
// that placement matches the old syntactic classifier's decisions on
// representative programs, and the parade_lint / parade_omcc CLI contracts.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.hpp"
#include "translator/analyze.hpp"
#include "translator/translate.hpp"

namespace parade::translator {
namespace {

Analysis analyze_ok(const std::string& source, AnalyzeOptions options = {}) {
  return analyze_source(source, options).value_or_die();
}

const Diagnostic* find_diag(const Analysis& analysis, const char* code) {
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

std::size_t count_diags(const Analysis& analysis, const char* code) {
  return static_cast<std::size_t>(std::count_if(
      analysis.diagnostics.begin(), analysis.diagnostics.end(),
      [&](const Diagnostic& d) { return d.code == code; }));
}

// ---------------------------------------------------------------------------
// Golden diagnostics

TEST(Analyze, RacySharedWriteIsErrorWithLine) {
  const Analysis a = analyze_ok(
      "int counter;\n"                      // 1
      "int main(void) {\n"                  // 2
      "  int i;\n"                          // 3
      "  #pragma omp parallel for\n"        // 4
      "  for (i = 0; i < 10; i++) {\n"      // 5
      "    counter = counter + 1;\n"        // 6
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagRaceSharedWrite);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 6);
  EXPECT_EQ(d->var, "counter");
  EXPECT_TRUE(a.has_errors());
  ASSERT_EQ(a.globals.count("counter"), 1u);
  EXPECT_EQ(a.globals.at("counter").placement, Placement::kDsmScalar);
}

TEST(Analyze, CleanReductionProgramHasNoDiagnostics) {
  const Analysis a = analyze_ok(
      "static long num_steps = 100;\n"
      "double step;\n"
      "int main(void) {\n"
      "  double x, pi, sum = 0.0;\n"
      "  long i;\n"
      "  step = 1.0 / (double)num_steps;\n"
      "  #pragma omp parallel for private(x) reduction(+:sum)\n"
      "  for (i = 0; i < num_steps; i++) {\n"
      "    x = (i + 0.5) * step;\n"
      "    sum = sum + 4.0 / (1.0 + x * x);\n"
      "  }\n"
      "  pi = step * sum;\n"
      "  return pi > 0 ? 0 : 1;\n"
      "}\n");
  EXPECT_TRUE(a.diagnostics.empty()) << a.to_text("clean.c");
  EXPECT_FALSE(a.has_errors());
  EXPECT_EQ(a.globals.at("num_steps").placement, Placement::kReplicated);
  EXPECT_EQ(a.globals.at("step").placement, Placement::kReplicated);
}

TEST(Analyze, ShadowingLocalSuppressesRace) {
  const Analysis a = analyze_ok(
      "int total;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    int total = 0;\n"
      "    total = total + 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagRaceSharedWrite), nullptr)
      << a.to_text("shadow.c");
  // The global was never written in a parallel context: stays replicated.
  EXPECT_EQ(a.globals.at("total").placement, Placement::kReplicated);
}

TEST(Analyze, ThreadprivateWritesAreNotRaces) {
  const Analysis a = analyze_ok(
      "int tp_counter;\n"
      "#pragma omp threadprivate(tp_counter)\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    tp_counter = tp_counter + 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagRaceSharedWrite), nullptr) << a.to_text("tp.c");
  EXPECT_EQ(a.globals.at("tp_counter").placement, Placement::kThreadprivate);
}

TEST(Analyze, ReductionVarWrittenOutsideReductionShape) {
  const Analysis a = analyze_ok(
      "int main(void) {\n"                        // 1
      "  double sum = 0.0;\n"                     // 2
      "  long i;\n"                               // 3
      "  #pragma omp parallel for reduction(+:sum)\n"  // 4
      "  for (i = 0; i < 10; i++) {\n"            // 5
      "    sum = i * 2.0;\n"                      // 6
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagReductionMisuse);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 6);
  EXPECT_EQ(d->var, "sum");
}

TEST(Analyze, CompatibleReductionUpdateIsClean) {
  const Analysis a = analyze_ok(
      "int main(void) {\n"
      "  double sum = 0.0;\n"
      "  long i;\n"
      "  #pragma omp parallel for reduction(+:sum)\n"
      "  for (i = 0; i < 10; i++) {\n"
      "    sum += 2.0;\n"
      "    sum = sum - 1.0;\n"  // minus folds into a + reduction
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagReductionMisuse), nullptr)
      << a.to_text("red.c");
}

TEST(Analyze, PrivateReadBeforeInit) {
  const Analysis a = analyze_ok(
      "int main(void) {\n"                 // 1
      "  double x = 1.0;\n"                // 2
      "  double y = 0.0;\n"                // 3
      "  #pragma omp parallel private(x)\n"  // 4
      "  {\n"                              // 5
      "    y = x + 1.0;\n"                 // 6
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagPrivateUninitRead);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 6);
  EXPECT_EQ(d->var, "x");
}

TEST(Analyze, FirstprivateReadIsNotUninit) {
  const Analysis a = analyze_ok(
      "int main(void) {\n"
      "  double x = 1.0;\n"
      "  double y = 0.0;\n"
      "  #pragma omp parallel firstprivate(x)\n"
      "  {\n"
      "    y = x + 1.0;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagPrivateUninitRead), nullptr)
      << a.to_text("fp.c");
}

TEST(Analyze, BarrierUnderConditionalDiverges) {
  const Analysis a = analyze_ok(
      "int main(void) {\n"              // 1
      "  int flag = 0;\n"               // 2
      "  #pragma omp parallel\n"        // 3
      "  {\n"                           // 4
      "    if (flag) {\n"               // 5
      "      #pragma omp barrier\n"     // 6
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagBarrierDivergence);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 6);
}

TEST(Analyze, TopLevelBarrierInParallelIsFine) {
  const Analysis a = analyze_ok(
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp barrier\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagBarrierDivergence), nullptr)
      << a.to_text("barrier.c");
}

TEST(Analyze, NowaitFollowedByDependentRead) {
  const Analysis a = analyze_ok(
      "double acc;\n"                       // 1
      "int main(void) {\n"                  // 2
      "  long i;\n"                         // 3
      "  double out = 0.0;\n"               // 4
      "  #pragma omp parallel\n"            // 5
      "  {\n"                               // 6
      "    #pragma omp single nowait\n"     // 7
      "    {\n"                             // 8
      "      acc = 42.0;\n"                 // 9
      "    }\n"                             // 10
      "    out = acc + 1.0;\n"              // 11
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagNowaitDependentRead);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 11);
  EXPECT_EQ(d->var, "acc");
}

TEST(Analyze, BarrierClearsNowaitDependence) {
  const Analysis a = analyze_ok(
      "double acc;\n"
      "int main(void) {\n"
      "  double out = 0.0;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp single nowait\n"
      "    {\n"
      "      acc = 42.0;\n"
      "    }\n"
      "    #pragma omp barrier\n"
      "    out = acc + 1.0;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagNowaitDependentRead), nullptr)
      << a.to_text("nowait.c");
}

TEST(Analyze, DefaultNoneRequiresExplicitAttributes) {
  const Analysis a = analyze_ok(
      "int main(void) {\n"                        // 1
      "  double z = 0.0;\n"                       // 2
      "  #pragma omp parallel default(none)\n"    // 3
      "  {\n"                                     // 4
      "    double w = z;\n"                       // 5
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagDefaultNoneMissing);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->var, "z");
  // Reported once per (region, variable) even with repeated references.
  EXPECT_EQ(count_diags(a, kDiagDefaultNoneMissing), 1u);
}

TEST(Analyze, AtomicNonUpdateIsError) {
  const Analysis a = analyze_ok(
      "int main(void) {\n"             // 1
      "  double v = 0.0;\n"            // 2
      "  #pragma omp parallel\n"       // 3
      "  {\n"                          // 4
      "    #pragma omp atomic\n"       // 5
      "    v = 2.0 * 3.0;\n"           // 6
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagAtomicNotUpdate);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 5);
}

TEST(Analyze, CriticalWithCallExplainsFallback) {
  const Analysis a = analyze_ok(
      "double total;\n"
      "double f(double v);\n"
      "int main(void) {\n"             // 3
      "  #pragma omp parallel\n"       // 4
      "  {\n"                          // 5
      "    #pragma omp critical\n"     // 6
      "    total = total + f(1.0);\n"  // 7
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagSyncDsmFallback);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_EQ(d->line, 6);
  EXPECT_NE(d->message.find("function"), std::string::npos);
  ASSERT_EQ(a.sync_sites.count(6), 1u);
  EXPECT_FALSE(a.sync_sites.at(6).collective);
  // Fallback criticals leave their written globals on the DSM path.
  EXPECT_EQ(a.globals.at("total").placement, Placement::kDsmScalar);
}

TEST(Analyze, SectionsWritingSameSharedScalarRace) {
  const Analysis a = analyze_ok(
      "int shared_v;\n"                       // 1
      "int main(void) {\n"                    // 2
      "  #pragma omp parallel sections\n"     // 3
      "  {\n"                                 // 4
      "    #pragma omp section\n"             // 5
      "    shared_v = 1;\n"                   // 6
      "    #pragma omp section\n"             // 7
      "    shared_v = 2;\n"                   // 8
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagRaceSharedWrite);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->var, "shared_v");
  EXPECT_EQ(a.globals.at("shared_v").placement, Placement::kDsmScalar);
}

TEST(Analyze, SingleSectionWriteIsNotARace) {
  const Analysis a = analyze_ok(
      "int shared_v;\n"
      "int main(void) {\n"
      "  #pragma omp parallel sections\n"
      "  {\n"
      "    #pragma omp section\n"
      "    shared_v = 1;\n"
      "    #pragma omp section\n"
      "    { int local_v = 2; local_v = local_v + 1; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagRaceSharedWrite), nullptr)
      << a.to_text("sections.c");
}

// ---------------------------------------------------------------------------
// Size-aware hybrid protocol selection (paper §5.2: 256 B rule)

const char* kGuardedCritical =
    "double total;\n"                // 1
    "int main(void) {\n"             // 2
    "  #pragma omp parallel\n"       // 3
    "  {\n"                          // 4
    "    #pragma omp critical\n"     // 5
    "    total = total + 1.5;\n"     // 6
    "  }\n"
    "  return 0;\n"
    "}\n";

TEST(Analyze, SmallGuardedScalarGoesCollective) {
  const Analysis a = analyze_ok(kGuardedCritical);  // default 256 B threshold
  ASSERT_EQ(a.sync_sites.count(5), 1u);
  EXPECT_TRUE(a.sync_sites.at(5).collective);
  EXPECT_EQ(a.sync_sites.at(5).var, "total");
  EXPECT_EQ(a.globals.at("total").placement, Placement::kReplicated);
  EXPECT_EQ(a.globals.at("total").byte_size, 8u);

  TranslateOptions options;
  options.emit_main_wrapper = false;
  const std::string code =
      translate_source(kGuardedCritical, options).value_or_die();
  EXPECT_NE(code.find("team_allreduce_bytes"), std::string::npos);
  EXPECT_EQ(code.find("dsm_lock"), std::string::npos);
  EXPECT_NE(code.find("__prep_total"), std::string::npos);
}

TEST(Analyze, OverThresholdScalarFallsBackToDsm) {
  AnalyzeOptions options;
  options.mp_threshold_bytes = 4;  // a double no longer fits
  const Analysis a = analyze_ok(kGuardedCritical, options);
  ASSERT_EQ(a.sync_sites.count(5), 1u);
  EXPECT_FALSE(a.sync_sites.at(5).collective);
  EXPECT_NE(a.sync_sites.at(5).reason.find("threshold"), std::string::npos);
  EXPECT_EQ(a.globals.at("total").placement, Placement::kDsmScalar);

  TranslateOptions xoptions;
  xoptions.emit_main_wrapper = false;
  xoptions.mp_threshold_bytes = 4;
  const std::string code =
      translate_source(kGuardedCritical, xoptions).value_or_die();
  EXPECT_NE(code.find("dsm_lock"), std::string::npos);
  EXPECT_NE(code.find("__pdsm_total"), std::string::npos);
  EXPECT_EQ(code.find("team_allreduce_bytes"), std::string::npos);
}

TEST(Analyze, UnknownSizeTypeFallsBackWithReason) {
  const Analysis a = analyze_ok(
      "struct big_t state;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp critical\n"
      "    state += 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  ASSERT_EQ(a.sync_sites.count(5), 1u);
  EXPECT_FALSE(a.sync_sites.at(5).collective);
  EXPECT_NE(a.sync_sites.at(5).reason.find("size"), std::string::npos);
}

// ---------------------------------------------------------------------------
// One lowering rule: the §5.2.1 threshold alone picks collective or DSM lock,
// and the decision, the note and the generated code say the same thing.

// An 8-byte double under critical, read twice more per write elsewhere in
// the region.
const char* kReadDominatedDouble =
    "double acc;\n"
    "double probe;\n"
    "int main(void) {\n"
    "  int i;\n"
    "  #pragma omp parallel for\n"
    "  for (i = 0; i < 8; i++) {\n"
    "    #pragma omp critical\n"
    "    {\n"
    "      acc = acc + 2.0;\n"
    "    }\n"
    "    probe = acc + acc;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

// A read-dominated 4-byte counter under critical and an 8-byte double under
// atomic.
const char* kReadDominatedCounter =
    "int count;\n"
    "double total;\n"
    "int seen[64];\n"
    "int main(void) {\n"
    "  int i;\n"
    "  #pragma omp parallel for\n"
    "  for (i = 0; i < 64; i++) {\n"
    "    #pragma omp critical\n"
    "    count += 1;\n"
    "    seen[i] = count + count;\n"
    "    #pragma omp atomic\n"
    "    total += 0.5;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

/// The critical/atomic lowerings of generated code in emission order: true
/// for an update-by-collective, false for a DSM lock.
std::vector<bool> emitted_lowerings(const std::string& code) {
  std::vector<bool> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t coll = code.find("parade::team_allreduce_bytes(", pos);
    const std::size_t lock = code.find("parade::dsm_lock(", pos);
    if (coll == std::string::npos && lock == std::string::npos) break;
    out.push_back(coll < lock);
    pos = std::min(coll, lock) + 1;
  }
  return out;
}

/// Every critical/atomic site of `program` (one parallel region, no
/// reduction clauses, so emission order is line order) lowers as
/// `want_collective` says, and the analyzer's decision, its
/// sync.dsm_fallback note and the emitted code agree.
void expect_one_lowering_rule(const char* program, std::size_t threshold,
                              bool want_collective) {
  AnalyzeOptions aoptions;
  aoptions.mp_threshold_bytes = threshold;
  const Analysis a = analyze_ok(program, aoptions);
  TranslateOptions toptions;
  toptions.mp_threshold_bytes = threshold;
  toptions.emit_main_wrapper = false;
  const std::string code = translate_source(program, toptions).value_or_die();
  const std::vector<bool> emitted = emitted_lowerings(code);
  ASSERT_EQ(emitted.size(), a.sync_sites.size()) << code;
  std::size_t i = 0;
  for (const auto& [line, dec] : a.sync_sites) {
    const bool noted = std::any_of(
        a.diagnostics.begin(), a.diagnostics.end(), [&](const Diagnostic& d) {
          return d.code == kDiagSyncDsmFallback && d.line == line;
        });
    SCOPED_TRACE("threshold " + std::to_string(threshold) + ", line " +
                 std::to_string(line) + ": " + dec.reason);
    EXPECT_EQ(dec.collective, want_collective);
    EXPECT_EQ(noted, !dec.collective);
    EXPECT_EQ(emitted[i++], dec.collective) << code;
  }
}

TEST(Analyze, ThresholdAloneDecidesLoweringAndNoteAgrees) {
  // Below the declared sizes every site takes the DSM lock, however
  // read-dominated its target is; at the paper's 256 B every site is a
  // collective.
  expect_one_lowering_rule(kReadDominatedDouble, 4, /*want_collective=*/false);
  expect_one_lowering_rule(kReadDominatedCounter, 1,
                           /*want_collective=*/false);
  expect_one_lowering_rule(kReadDominatedDouble, 256, /*want_collective=*/true);
  expect_one_lowering_rule(kReadDominatedCounter, 256,
                           /*want_collective=*/true);
}

// ---------------------------------------------------------------------------
// Classification regression vs the old syntactic classifier

TEST(AnalyzeRegression, MasterBlockWritesStayOnDsm) {
  const Analysis a = analyze_ok(
      "int m_count;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp master\n"
      "    m_count = m_count + 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  // One thread executes: no race, but nothing propagates the store except
  // the DSM (same decision the old classifier made).
  EXPECT_EQ(find_diag(a, kDiagRaceSharedWrite), nullptr);
  EXPECT_EQ(a.globals.at("m_count").placement, Placement::kDsmScalar);
}

TEST(AnalyzeRegression, SingleWritesStayReplicated) {
  const Analysis a = analyze_ok(
      "int s_value;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp single\n"
      "    s_value = 7;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  // single results travel in the broadcast payload: managed, replicated.
  EXPECT_EQ(find_diag(a, kDiagRaceSharedWrite), nullptr);
  EXPECT_EQ(a.globals.at("s_value").placement, Placement::kReplicated);
}

TEST(AnalyzeRegression, FileArraysAlwaysDsm) {
  const Analysis a = analyze_ok(
      "double grid[64][64];\n"
      "int main(void) { return 0; }\n");
  EXPECT_EQ(a.globals.at("grid").placement, Placement::kDsmArray);
}

TEST(AnalyzeRegression, SerialWritesDoNotForceDsm) {
  const Analysis a = analyze_ok(
      "double step;\n"
      "int main(void) {\n"
      "  step = 0.5;\n"  // serial context: no parallel write
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.diagnostics.empty());
  EXPECT_EQ(a.globals.at("step").placement, Placement::kReplicated);
}

TEST(AnalyzeRegression, DivisionUpdateNoLongerSplitsDecision) {
  // Old bug: the classifier accepted `x = x / n` as managed (any binop) but
  // the emitter rejected it (no `/` collective), leaving a replicated
  // variable updated behind a lock — lost updates. The unified analysis
  // makes one decision: not analyzable, DSM placement.
  const Analysis a = analyze_ok(
      "double ratio;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp critical\n"
      "    ratio = ratio / 2.0;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  ASSERT_EQ(a.sync_sites.count(5), 1u);
  EXPECT_FALSE(a.sync_sites.at(5).collective);
  EXPECT_EQ(a.globals.at("ratio").placement, Placement::kDsmScalar);
}

// ---------------------------------------------------------------------------
// Update-shape matcher

/// match_scalar_update over the tokens of `text` (without the EOF token).
std::optional<UpdateShape> match_text(const std::string& text) {
  const std::vector<Token> tokens = lex(text).value_or_die();
  return match_scalar_update(tokens, {0, tokens.size() - 1});
}

TEST(MatchScalarUpdate, Shapes) {
  auto m = match_text("sum += x * 2;");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->var, "sum");
  EXPECT_EQ(m->combine_op, "+");

  m = match_text("n++;");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->apply_op, "+");
  EXPECT_EQ(m->expr.text, "1");

  m = match_text("v = v - 3;");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->combine_op, "+");  // subtraction combines additively
  EXPECT_EQ(m->apply_op, "-");

  EXPECT_FALSE(match_text("v = w + 3;").has_value());
  EXPECT_FALSE(match_text("v = v / 3;").has_value());
  EXPECT_FALSE(match_text("v += f(3);").has_value());
  EXPECT_FALSE(match_text("if (v) v++;").has_value());
}

// ---------------------------------------------------------------------------
// Declared sizes and the strict threshold parser

TEST(SizeofDeclared, BaseTypesPointersArrays) {
  EXPECT_EQ(sizeof_declared("double", 0, {}), 8u);
  EXPECT_EQ(sizeof_declared("static unsigned long", 0, {}), 8u);
  EXPECT_EQ(sizeof_declared("long double", 0, {}), 16u);
  EXPECT_EQ(sizeof_declared("char", 0, {}), 1u);
  EXPECT_EQ(sizeof_declared("short", 0, {}), 2u);
  EXPECT_EQ(sizeof_declared("float", 0, {}), 4u);
  EXPECT_EQ(sizeof_declared("int32_t", 0, {}), 4u);
  EXPECT_EQ(sizeof_declared("struct point", 0, {}), 0u);  // unknown layout
  EXPECT_EQ(sizeof_declared("struct point", 1, {}), sizeof(void*));
  EXPECT_EQ(sizeof_declared("double", 0, {"8", "4"}), 256u);
  EXPECT_EQ(sizeof_declared("double", 0, {"N"}), 0u);  // symbolic dim
}

TEST(ParseThreshold, StrictValidation) {
  EXPECT_EQ(parse_threshold_bytes("256").value_or_die(), 256u);
  EXPECT_EQ(parse_threshold_bytes("1").value_or_die(), 1u);
  EXPECT_FALSE(parse_threshold_bytes("").is_ok());
  EXPECT_FALSE(parse_threshold_bytes("0").is_ok());
  EXPECT_FALSE(parse_threshold_bytes("abc").is_ok());
  EXPECT_FALSE(parse_threshold_bytes("12abc").is_ok());
  EXPECT_FALSE(parse_threshold_bytes("-5").is_ok());
  EXPECT_FALSE(parse_threshold_bytes("1e3").is_ok());
  EXPECT_FALSE(parse_threshold_bytes("99999999999999999999999").is_ok());
}

// ---------------------------------------------------------------------------
// Report formats

TEST(AnalyzeReport, JsonIsValidAndCarriesSummary) {
  const Analysis a = analyze_ok(
      "int counter;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    counter = counter + 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const std::string json = a.to_json("racy.c");
  auto doc = obs::parse_json(json).value_or_die();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("file").string, "racy.c");
  EXPECT_EQ(doc.at("summary").at("errors").as_int(), 1);
  EXPECT_EQ(doc.at("summary").at("vars_dsm").as_int(), 1);
  ASSERT_TRUE(doc.at("diagnostics").is_array());
  ASSERT_EQ(doc.at("diagnostics").array.size(), 1u);
  EXPECT_EQ(doc.at("diagnostics").array[0].at("code").string,
            "race.shared_write");
  EXPECT_EQ(doc.at("diagnostics").array[0].at("line").as_int(), 5);
  ASSERT_TRUE(doc.at("globals").is_array());
  ASSERT_TRUE(doc.at("sync_sites").is_array());
}

TEST(AnalyzeReport, TextFormatHasFileLineCode) {
  const Analysis a = analyze_ok(
      "int counter;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  { counter = counter + 1; }\n"
      "  return 0;\n"
      "}\n");
  const std::string text = a.to_text("racy.c");
  EXPECT_NE(text.find("racy.c:4:5: error [race.shared_write]"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Diagnostics never fail translation (lint is advisory for codegen)

// parade_lint CLI contract (the binary the lint CI tier runs)

std::string run_tool(const std::string& tool, const std::string& args,
                     int* exit_code) {
  const std::string command = std::string(PARADE_BINARY_DIR) +
                              "/src/translator/" + tool + " " + args;
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

std::string run_lint(const std::string& args, int* exit_code) {
  return run_tool("parade_lint", args, exit_code);
}

TEST(LintCli, NoInputFilesIsAUsageError) {
  int exit_code = 0;
  const std::string output = run_lint("", &exit_code);
  EXPECT_EQ(exit_code, 2);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(LintCli, VersionFlagPrintsAndSucceeds) {
  int exit_code = -1;
  const std::string output = run_lint("--version", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(output.find("parade_lint"), std::string::npos);
}

TEST(LintCli, UnknownFlagIsAUsageError) {
  int exit_code = 0;
  run_lint("--no-such-flag", &exit_code);
  EXPECT_EQ(exit_code, 2);
}

TEST(LintCli, JsonAndSarifAreMutuallyExclusive) {
  int exit_code = 0;
  run_lint("--json --sarif whatever.c", &exit_code);
  EXPECT_EQ(exit_code, 2);
}

TEST(OmccCli, HintsJsonIsAnUnknownFlag) {
  // Both retired hint flags: the --hints=json sidecar and --no-hints, which
  // switched off a promotion that no longer exists.
  const std::string input =
      std::string(PARADE_SOURCE_DIR) + "/tests/translator_inputs/helmholtz.c";
  for (const char* flag : {"--hints=json", "--no-hints"}) {
    int exit_code = -1;
    run_tool("parade_omcc", input + " " + flag, &exit_code);
    EXPECT_EQ(exit_code, 2) << flag;
  }
}

std::string write_temp(const char* name, const char* content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(LintCli, SarifReportCarriesStableRuleIdsAndLocations) {
  const std::string racy = write_temp(
      "parade_lint_sarif_racy.c",
      "int counter;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  { counter = counter + 1; }\n"
      "  return 0;\n"
      "}\n");
  int exit_code = -1;
  const std::string output = run_lint("--sarif " + racy, &exit_code);
  EXPECT_EQ(exit_code, 1) << output;  // error-severity finding present
  auto doc = obs::parse_json(output);
  ASSERT_TRUE(doc.is_ok()) << output;
  const auto& runs = doc.value().at("runs");
  ASSERT_TRUE(runs.is_array());
  ASSERT_EQ(runs.array.size(), 1u);
  const auto& run = runs.array[0];
  EXPECT_EQ(run.at("tool").at("driver").at("name").string, "parade_lint");
  bool saw_race_rule = false;
  for (const auto& rule : run.at("tool").at("driver").at("rules").array) {
    if (rule.at("id").string == kDiagRaceSharedWrite) saw_race_rule = true;
  }
  EXPECT_TRUE(saw_race_rule) << output;
  ASSERT_FALSE(run.at("results").array.empty());
  const auto& result = run.at("results").array[0];
  EXPECT_EQ(result.at("ruleId").string, kDiagRaceSharedWrite);
  EXPECT_EQ(result.at("level").string, "error");
  const auto& location = result.at("locations").array[0].at("physicalLocation");
  EXPECT_EQ(location.at("artifactLocation").at("uri").string, racy);
  EXPECT_EQ(location.at("region").at("startLine").as_int(), 4);
  // Token-precise region: the column of 'counter' in "  { counter = ...",
  // with the exclusive endColumn one past the identifier.
  EXPECT_EQ(location.at("region").at("startColumn").as_int(), 5);
  EXPECT_EQ(location.at("region").at("endColumn").as_int(), 12);
  std::remove(racy.c_str());
}

// ---------------------------------------------------------------------------
// Column resolution + deterministic report order

TEST(AnalyzeReport, DiagnosticsCarryTokenColumns) {
  const Analysis a = analyze_ok(
      "int counter;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  { counter = counter + 1; }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagRaceSharedWrite);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->column, 5);
  EXPECT_EQ(d->end_column, 12);
  auto doc = obs::parse_json(a.to_json("racy.c"));
  ASSERT_TRUE(doc.is_ok());
  const auto& first = doc.value().at("diagnostics").array[0];
  EXPECT_EQ(first.at("column").as_int(), 5);
  EXPECT_EQ(first.at("end_column").as_int(), 12);
}

TEST(AnalyzeReport, DiagnosticOrderIsDeterministicAndSorted) {
  // Two findings on the same line plus findings on earlier lines: the final
  // report must be sorted by (line, rule id, variable) regardless of the
  // order the passes appended them in.
  const char* source =
      "int a;\n"
      "int b;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  { b = a + 1; a = b + 1; }\n"
      "  return 0;\n"
      "}\n";
  const Analysis first = analyze_ok(source);
  const Analysis second = analyze_ok(source);
  ASSERT_GE(first.diagnostics.size(), 2u);
  ASSERT_EQ(first.diagnostics.size(), second.diagnostics.size());
  for (std::size_t i = 0; i < first.diagnostics.size(); ++i) {
    EXPECT_EQ(first.diagnostics[i].code, second.diagnostics[i].code);
    EXPECT_EQ(first.diagnostics[i].var, second.diagnostics[i].var);
    EXPECT_EQ(first.diagnostics[i].line, second.diagnostics[i].line);
  }
  const bool sorted = std::is_sorted(
      first.diagnostics.begin(), first.diagnostics.end(),
      [](const Diagnostic& x, const Diagnostic& y) {
        return std::tie(x.line, x.code, x.var) <
               std::tie(y.line, y.code, y.var);
      });
  EXPECT_TRUE(sorted);
}

TEST(LintCli, DataflowReportListsRegionsAndSuppressions) {
  const std::string guarded = write_temp(
      "parade_lint_dataflow.c",
      "double acc;\n"
      "double out;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp single nowait\n"
      "    {\n"
      "      acc = 42.0;\n"
      "    }\n"
      "    #pragma omp critical\n"
      "    {\n"
      "      out = out + acc;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  int exit_code = -1;
  const std::string output = run_lint("--dataflow " + guarded, &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("dataflow: 1 region(s)"), std::string::npos) << output;
  EXPECT_NE(output.find("region CFG:"), std::string::npos) << output;
  EXPECT_NE(output.find("suppressed [nowait.dependent_read]"),
            std::string::npos)
      << output;
  std::remove(guarded.c_str());
}

// ---------------------------------------------------------------------------
// Flow-sensitive pass: nowait FP fixes (the def-use walk only honored
// barriers that were direct children of the region body)

TEST(FlowNowait, BarriersOnBothArmsOfAnIfClearDependence) {
  const Analysis a = analyze_ok(
      "double acc;\n"
      "int c;\n"
      "int main(void) {\n"
      "  double out = 0.0;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp single nowait\n"
      "    {\n"
      "      acc = 42.0;\n"
      "    }\n"
      "    if (c > 0) {\n"
      "      #pragma omp barrier\n"
      "    } else {\n"
      "      #pragma omp barrier\n"
      "    }\n"
      "    out = acc + 1.0;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagNowaitDependentRead), nullptr)
      << a.to_text("nested_barrier.c");
  // The def-use walk still found it; the flow pass filed it as suppressed.
  bool suppressed = false;
  for (const Diagnostic& d : a.suppressed) {
    if (d.code == kDiagNowaitDependentRead) suppressed = true;
  }
  EXPECT_TRUE(suppressed);
}

TEST(FlowNowait, BarrierOnOneArmOnlyKeepsDependence) {
  const Analysis a = analyze_ok(
      "double acc;\n"                       // 1
      "int c;\n"                            // 2
      "int main(void) {\n"                  // 3
      "  double out = 0.0;\n"               // 4
      "  #pragma omp parallel\n"            // 5
      "  {\n"                               // 6
      "    #pragma omp single nowait\n"     // 7
      "    {\n"                             // 8
      "      acc = 42.0;\n"                 // 9
      "    }\n"                             // 10
      "    if (c > 0) {\n"                  // 11
      "      #pragma omp barrier\n"         // 12
      "    }\n"                             // 13
      "    out = acc + 1.0;\n"              // 14
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagNowaitDependentRead);
  ASSERT_NE(d, nullptr) << "the else path skips the barrier";
  EXPECT_EQ(d->line, 14);
}

TEST(FlowNowait, CriticalGuardedReadIsNotADependence) {
  const Analysis a = analyze_ok(
      "double acc;\n"
      "double out;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp single nowait\n"
      "    {\n"
      "      acc = 42.0;\n"
      "    }\n"
      "    #pragma omp critical\n"
      "    {\n"
      "      out = out + acc;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagNowaitDependentRead), nullptr)
      << a.to_text("critical_guard.c");
}

TEST(FlowNowait, FlowInsensitiveModeKeepsTheOldBehavior) {
  AnalyzeOptions options;
  options.flow_sensitive = false;
  const Analysis a = analyze_source(
      "double acc;\n"
      "int c;\n"
      "int main(void) {\n"
      "  double out = 0.0;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp single nowait\n"
      "    {\n"
      "      acc = 42.0;\n"
      "    }\n"
      "    if (c > 0) {\n"
      "      #pragma omp barrier\n"
      "    } else {\n"
      "      #pragma omp barrier\n"
      "    }\n"
      "    out = acc + 1.0;\n"
      "  }\n"
      "  return 0;\n"
      "}\n",
      options).value_or_die();
  EXPECT_NE(find_diag(a, kDiagNowaitDependentRead), nullptr)
      << "without the CFG the nested barriers are invisible";
  EXPECT_TRUE(a.suppressed.empty());
}

// ---------------------------------------------------------------------------
// Flow-only diagnostics: barrier.unmatched / lock.order_cycle /
// dsm.stale_read_loop (positive and negative golden cases each)

TEST(FlowDiag, BarrierUnmatchedAcrossIfArms) {
  const Analysis a = analyze_ok(
      "int c, x;\n"                     // 1
      "int main(void) {\n"              // 2
      "  #pragma omp parallel\n"        // 3
      "  {\n"                           // 4
      "    if (c > 0) {\n"              // 5
      "      #pragma omp barrier\n"     // 6
      "    } else {\n"                  // 7
      "      x = 1;\n"                  // 8
      "    }\n"                         // 9
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagBarrierUnmatched);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 5);
  EXPECT_EQ(count_diags(a, kDiagBarrierUnmatched), 1u);
}

TEST(FlowDiag, BalancedBarriersAreNotUnmatched) {
  const Analysis a = analyze_ok(
      "int c;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    if (c > 0) {\n"
      "      #pragma omp barrier\n"
      "    } else {\n"
      "      #pragma omp barrier\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagBarrierUnmatched), nullptr)
      << a.to_text("balanced.c");
}

TEST(FlowDiag, LockOrderCycleAcrossNamedCriticals) {
  const Analysis a = analyze_ok(
      "int x, y;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp critical(alpha)\n"
      "    {\n"
      "      #pragma omp critical(beta)\n"
      "      { x = x + 1; }\n"
      "    }\n"
      "    #pragma omp critical(beta)\n"
      "    {\n"
      "      #pragma omp critical(alpha)\n"
      "      { y = y + 1; }\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagLockOrderCycle);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("alpha"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("beta"), std::string::npos) << d->message;
  EXPECT_EQ(count_diags(a, kDiagLockOrderCycle), 1u);
}

TEST(FlowDiag, ConsistentLockOrderHasNoCycle) {
  const Analysis a = analyze_ok(
      "int x, y;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp critical(alpha)\n"
      "    {\n"
      "      #pragma omp critical(beta)\n"
      "      { x = x + 1; }\n"
      "    }\n"
      "    #pragma omp critical(alpha)\n"
      "    {\n"
      "      #pragma omp critical(beta)\n"
      "      { y = y + 1; }\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagLockOrderCycle), nullptr)
      << a.to_text("consistent.c");
}

TEST(FlowDiag, StaleSharedReadInSyncFreeLoop) {
  const Analysis a = analyze_ok(
      "int flag;\n"                         // 1
      "int main(void) {\n"                  // 2
      "  #pragma omp parallel\n"            // 3
      "  {\n"                               // 4
      "    int spins = 0;\n"                // 5
      "    while (flag == 0) {\n"           // 6
      "      spins = spins + 1;\n"          // 7
      "    }\n"                             // 8
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(a, kDiagStaleReadLoop);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 6);
  EXPECT_EQ(d->var, "flag");
}

TEST(FlowDiag, FlushInLoopClearsStaleRead) {
  const Analysis a = analyze_ok(
      "int flag;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    int spins = 0;\n"
      "    while (flag == 0) {\n"
      "      #pragma omp flush\n"
      "      spins = spins + 1;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagStaleReadLoop), nullptr)
      << a.to_text("flush_loop.c");
}

TEST(FlowDiag, LocalLoopBoundIsNotStale) {
  const Analysis a = analyze_ok(
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    int n = 10;\n"
      "    int s = 0;\n"
      "    while (s < n) {\n"
      "      s = s + 1;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(a, kDiagStaleReadLoop), nullptr)
      << a.to_text("local_bound.c");
}

TEST(Analyze, RacyProgramStillTranslates) {
  TranslateOptions options;
  options.emit_main_wrapper = false;
  auto code = translate_source(
      "int counter;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  { counter = counter + 1; }\n"
      "  return 0;\n"
      "}\n",
      options);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  // The racy scalar lands in the DSM pool, as before the analyzer rewire.
  EXPECT_NE(code.value().find("__pdsm_counter"), std::string::npos);
}

}  // namespace
}  // namespace parade::translator

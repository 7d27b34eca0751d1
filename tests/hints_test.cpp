// Protocol-hint synthesis tests (docs/ANALYZER.md "Protocol hints"): affine
// footprints from literal loop bounds, the update-vs-invalidate prior rule,
// the hint-driven promotion that replaces the raw threshold comparison in
// collective-vs-DSM lowering (including the revert when the symbol is pinned
// to the DSM pool), and the `hints` array of parade_omcc --analyze=json.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "obs/json.hpp"
#include "translator/analyze.hpp"
#include "translator/translate.hpp"

namespace parade::translator {
namespace {

Analysis analyze_ok(const std::string& source, AnalyzeOptions options = {}) {
  return analyze_source(source, options).value_or_die();
}

// The corpus program for the lowering flip: an 8-byte double guarded by a
// critical, read twice more per write elsewhere in the region. Under
// --threshold=4 the raw comparison rejects the collective (8 > 4); the hint
// prior (8 <= 4*threshold, reads >= 2*writes) promotes it back.
const char* kFlipProgram =
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

TEST(Hints, AffineArrayFootprintFromLiteralBounds) {
  const Analysis a = analyze_ok(
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
  const SymbolHint* h = a.hints.find("grid");
  ASSERT_NE(h, nullptr);
  // 16 * 8 iterations touch one 8-byte element each; the affine footprint is
  // far below the declared 64*64*8 bytes.
  EXPECT_EQ(h->footprint_bytes, 16u * 8u * 8u);
  EXPECT_EQ(h->byte_size, 64u * 64u * 8u);
  EXPECT_EQ(h->writes, 1u);
}

TEST(Hints, SymbolicBoundResolvedFromFileScopeLiteral) {
  const Analysis a = analyze_ok(
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
  const SymbolHint* h = a.hints.find("v");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->footprint_bytes, 100u * 8u);
}

TEST(Hints, UpdatePriorNeedsReadDominanceAndSmallSize) {
  AnalyzeOptions options;
  options.mp_threshold_bytes = 4;
  const Analysis a = analyze_ok(kFlipProgram, options);
  const SymbolHint* acc = a.hints.find("acc");
  ASSERT_NE(acc, nullptr);
  EXPECT_GE(acc->reads, 2 * acc->writes);
  EXPECT_TRUE(acc->prefer_update);

  // Write-only symbol: no reads to amortize eager updates.
  const SymbolHint* probe = a.hints.find("probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_FALSE(probe->prefer_update);
}

TEST(Hints, PromotionFlipsThresholdFallbackToCollective) {
  AnalyzeOptions options;
  options.mp_threshold_bytes = 4;
  const Analysis with_hints = analyze_ok(kFlipProgram, options);
  bool found = false;
  for (const auto& [line, dec] : with_hints.sync_sites) {
    (void)line;
    if (dec.var != "acc") continue;
    found = true;
    EXPECT_TRUE(dec.collective) << dec.reason;
    EXPECT_NE(dec.reason.find("promoted"), std::string::npos) << dec.reason;
  }
  EXPECT_TRUE(found);

  options.protocol_hints = false;
  const Analysis without = analyze_ok(kFlipProgram, options);
  for (const auto& [line, dec] : without.sync_sites) {
    (void)line;
    if (dec.var != "acc") continue;
    EXPECT_FALSE(dec.collective);
    EXPECT_TRUE(dec.threshold_fallback);
  }
}

TEST(Hints, PromotionChangesEmittedLowering) {
  TranslateOptions options;
  options.mp_threshold_bytes = 4;
  options.emit_main_wrapper = false;
  const std::string promoted =
      translate_source(kFlipProgram, options).value_or_die();
  EXPECT_NE(promoted.find("team_allreduce_bytes"), std::string::npos);
  EXPECT_EQ(promoted.find("dsm_lock"), std::string::npos);

  options.protocol_hints = false;
  const std::string fallback =
      translate_source(kFlipProgram, options).value_or_die();
  EXPECT_EQ(fallback.find("team_allreduce_bytes"), std::string::npos);
  EXPECT_NE(fallback.find("dsm_lock"), std::string::npos);
}

TEST(Hints, PromotionRevertedWhenSymbolIsPinnedToDsm) {
  // The same guarded update, but an unmanaged parallel write elsewhere pins
  // `acc` to the DSM pool — a collective would no longer cover every writer,
  // so the promotion must back out.
  AnalyzeOptions options;
  options.mp_threshold_bytes = 4;
  const Analysis a = analyze_ok(
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
      "    acc = probe;\n"
      "  }\n"
      "  return 0;\n"
      "}\n",
      options);
  ASSERT_EQ(a.globals.count("acc"), 1u);
  EXPECT_EQ(a.globals.at("acc").placement, Placement::kDsmScalar);
  for (const auto& [line, dec] : a.sync_sites) {
    (void)line;
    if (dec.var == "acc") {
      EXPECT_FALSE(dec.collective) << dec.reason;
    }
  }
}

TEST(Hints, DefaultThresholdCorpusLoweringUnchanged) {
  // At the paper's 256-byte threshold an 8-byte reduction-shaped critical is
  // collective with or without hints: promotion only widens, never narrows.
  const char* program =
      "double total;\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 8; i++) {\n"
      "    #pragma omp critical\n"
      "    { total = total + 1.5; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  AnalyzeOptions with;
  AnalyzeOptions without;
  without.protocol_hints = false;
  const Analysis a = analyze_ok(program, with);
  const Analysis b = analyze_ok(program, without);
  ASSERT_EQ(a.sync_sites.size(), b.sync_sites.size());
  for (const auto& [line, dec] : a.sync_sites) {
    ASSERT_EQ(b.sync_sites.count(line), 1u);
    EXPECT_EQ(dec.collective, b.sync_sites.at(line).collective);
  }
}

// ---------------------------------------------------------------------------
// parade_omcc CLI

std::string run_omcc(const std::string& args, int* exit_code) {
  const std::string command =
      std::string(PARADE_BINARY_DIR) + "/src/translator/parade_omcc " + args;
  std::string output;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return output;
}

TEST(OmccCli, AnalyzeJsonHintsCarryThePromotionInputs) {
  int exit_code = -1;
  const std::string output = run_omcc(
      std::string(PARADE_SOURCE_DIR) +
          "/tests/translator_inputs/helmholtz.c --analyze=json",
      &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  auto doc = obs::parse_json(output);
  ASSERT_TRUE(doc.is_ok()) << output;
  ASSERT_TRUE(doc.value().at("hints").is_array()) << output;
  bool found_u = false;
  for (const auto& hint : doc.value().at("hints").array) {
    ASSERT_TRUE(hint.has("name")) << output;
    EXPECT_TRUE(hint.has("reads")) << output;
    EXPECT_TRUE(hint.has("writes")) << output;
    EXPECT_TRUE(hint.has("footprint_bytes")) << output;
    EXPECT_TRUE(hint.has("prefer_update")) << output;
    if (hint.at("name").string != "u") continue;
    found_u = true;
    EXPECT_GT(hint.at("reads").as_int(), 0) << output;
    EXPECT_GT(hint.at("writes").as_int(), 0) << output;
  }
  EXPECT_TRUE(found_u) << output;
}

TEST(OmccCli, HintsJsonIsAnUnknownFlag) {
  int exit_code = -1;
  run_omcc(std::string(PARADE_SOURCE_DIR) +
               "/tests/translator_inputs/helmholtz.c --hints=json",
           &exit_code);
  EXPECT_EQ(exit_code, 2);
}

}  // namespace
}  // namespace parade::translator

// End-to-end accuracy of the static message-cost model (docs/ANALYZER.md
// "Message-cost model"): for each cost-corpus program, the `parade_lint
// --cost` predictions for dsm.lock_acquires / dsm.page_fetches /
// dsm.diffs_created must land within the report's documented tolerance
// factor of the counters observed in real 2-node runs of the translated
// binary (PARADE_METRICS export, summed across nodes; the median of three
// runs, since one run's lock convoy can collapse to a single handoff).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "translator/translate.hpp"

namespace parade::translator {
namespace {

namespace fs = std::filesystem;

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

/// Totals of the three modeled counters, predicted or observed.
struct CounterTotals {
  double lock_acquires = 0;
  double page_fetches = 0;
  double diffs_created = 0;
  double tolerance_factor = 0;
};

/// Runs `parade_lint --json --cost=2` on `source_path` and reads the totals
/// of the cost report (the last JSON document on stdout).
CounterTotals predict(const std::string& source_path) {
  CounterTotals totals;
  int code = -1;
  const std::string output =
      run_command(std::string(PARADE_BINARY_DIR) +
                      "/src/translator/parade_lint --json --cost=2 " +
                      source_path,
                  &code);
  EXPECT_EQ(code, 0) << output;
  const std::size_t last_line = output.find_last_of('\n', output.size() - 2);
  const std::string cost_json =
      output.substr(last_line == std::string::npos ? 0 : last_line + 1);
  auto doc = obs::parse_json(cost_json);
  EXPECT_TRUE(doc.is_ok()) << cost_json;
  if (!doc.is_ok()) return totals;
  const obs::JsonValue& t = doc.value().at("totals");
  totals.lock_acquires = t.at("dsm.lock_acquires").number;
  totals.page_fetches = t.at("dsm.page_fetches").number;
  totals.diffs_created = t.at("dsm.diffs_created").number;
  totals.tolerance_factor = doc.value().at("tolerance_factor").number;
  return totals;
}

/// Sums the dsm.* counters the model predicts across all nodes of one
/// PARADE_METRICS export.
CounterTotals read_metrics(const fs::path& metrics) {
  CounterTotals totals;
  std::ifstream metrics_in(metrics);
  EXPECT_TRUE(metrics_in.good()) << metrics;
  std::ostringstream metrics_text;
  metrics_text << metrics_in.rdbuf();
  auto doc = obs::parse_json(metrics_text.str());
  EXPECT_TRUE(doc.is_ok()) << metrics_text.str();
  if (!doc.is_ok()) return totals;
  for (const obs::JsonValue& node : doc.value().at("nodes").array) {
    const obs::JsonValue& counters = node.at("counters");
    if (counters.has("dsm.lock_acquires")) {
      totals.lock_acquires += counters.at("dsm.lock_acquires").number;
    }
    if (counters.has("dsm.page_fetches")) {
      totals.page_fetches += counters.at("dsm.page_fetches").number;
    }
    if (counters.has("dsm.diffs_created")) {
      totals.diffs_created += counters.at("dsm.diffs_created").number;
    }
  }
  return totals;
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Translates and compiles `source_path`, runs it `runs` times on a 2-node /
/// 1-thread virtual cluster with PARADE_METRICS, and returns the median of
/// each modeled counter over the runs.
CounterTotals observe(const std::string& name, const std::string& source_path,
                      int runs) {
  CounterTotals totals;
  std::ifstream in(source_path);
  EXPECT_TRUE(in.good()) << source_path;
  std::ostringstream text;
  text << in.rdbuf();
  auto translated = translate_source(text.str());
  EXPECT_TRUE(translated.is_ok()) << translated.status().to_string();
  if (!translated.is_ok()) return totals;

  const fs::path dir = fs::temp_directory_path() / "parade-cost-e2e";
  fs::create_directories(dir);
  const fs::path cpp = dir / (name + ".cpp");
  const fs::path bin = dir / name;
  const fs::path metrics = dir / (name + ".metrics.json");
  std::ofstream(cpp) << translated.value();

  const std::string src_dir = PARADE_SOURCE_DIR;
  const std::string bin_dir = PARADE_BINARY_DIR;
  int code = -1;
  const std::string compile_output = run_command(
      "g++ -std=c++20 -I " + src_dir + "/src -O1 -o " + bin.string() + " " +
          cpp.string() + " " + bin_dir +
          "/src/runtime/libparade_runtime.a " + bin_dir +
          "/src/dsm/libparade_dsm.a " + bin_dir + "/src/mp/libparade_mp.a " +
          bin_dir + "/src/net/libparade_net.a " + bin_dir +
          "/src/obs/libparade_obs.a " + bin_dir +
          "/src/vtime/libparade_vtime.a " + bin_dir +
          "/src/common/libparade_common.a -lpthread",
      &code);
  EXPECT_EQ(code, 0) << "compile failed:\n" << compile_output;
  if (code != 0) return totals;

  std::vector<double> lock_acquires, page_fetches, diffs_created;
  for (int run = 0; run < runs; ++run) {
    const std::string run_output = run_command(
        "PARADE_NODES=2 PARADE_THREADS=1 PARADE_METRICS=" + metrics.string() +
            " " + bin.string(),
        &code);
    EXPECT_EQ(code, 0) << "run failed:\n" << run_output;
    const CounterTotals one = read_metrics(metrics);
    lock_acquires.push_back(one.lock_acquires);
    page_fetches.push_back(one.page_fetches);
    diffs_created.push_back(one.diffs_created);
  }
  totals.lock_acquires = median_of(lock_acquires);
  totals.page_fetches = median_of(page_fetches);
  totals.diffs_created = median_of(diffs_created);
  return totals;
}

/// The accuracy contract: predicted and observed agree within the report's
/// tolerance factor, in both directions, with an absolute slack of the
/// factor itself so near-zero counters do not divide the test by zero.
void expect_within_factor(const char* what, double predicted, double observed,
                          double factor) {
  EXPECT_LE(observed, predicted * factor + factor)
      << what << ": observed " << observed << " vs predicted " << predicted;
  EXPECT_LE(predicted, observed * factor + factor)
      << what << ": predicted " << predicted << " vs observed " << observed;
}

void check_program(const std::string& name) {
  const std::string source_path =
      std::string(PARADE_SOURCE_DIR) + "/tests/translator_inputs/" + name +
      ".c";
  const CounterTotals predicted = predict(source_path);
  ASSERT_GT(predicted.tolerance_factor, 0) << "cost report missing";
  const CounterTotals observed = observe(name, source_path, /*runs=*/3);
  expect_within_factor("dsm.lock_acquires", predicted.lock_acquires,
                       observed.lock_acquires, predicted.tolerance_factor);
  expect_within_factor("dsm.page_fetches", predicted.page_fetches,
                       observed.page_fetches, predicted.tolerance_factor);
  expect_within_factor("dsm.diffs_created", predicted.diffs_created,
                       observed.diffs_created, predicted.tolerance_factor);
}

TEST(CostModelE2e, PingPongProgram) { check_program("cost_pingpong"); }

TEST(CostModelE2e, ProducerConsumerProgram) {
  check_program("cost_prodcons");
}

}  // namespace
}  // namespace parade::translator

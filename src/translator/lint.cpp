// parade_lint: standalone OpenMP correctness linter over the ParADE
// semantic analyzer (docs/ANALYZER.md).
//
//   parade_lint [--json|--sarif] [--dataflow] [--cost[=NODES]]
//               [--threshold=BYTES] [--werror] <input.c>...
//   parade_lint --version
//
// Prints one report per input (--sarif emits a single combined SARIF 2.1.0
// log instead). --dataflow appends the CFG/dataflow report: per-region graph
// shape and every def-use finding the flow-sensitive pass suppressed.
// --cost appends the static message-cost estimate (per-construct lock/fetch/
// diff predictions for a NODES-node run, default 2; docs/ANALYZER.md).
// Exit codes: 0 all files clean of errors, 1 at least one error-severity
// finding (or warning with --werror), 2 usage (including no input files) /
// unreadable input / parse failure.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "translator/analyze.hpp"
#include "translator/interfere.hpp"
#include "translator/parser.hpp"
#include "translator/token.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: parade_lint [--json|--sarif] [--dataflow] "
               "[--cost[=NODES]] [--threshold=BYTES] [--werror] "
               "<input.c>...\n");
  return 2;
}

/// Strict NODES parse for --cost=NODES: 1..128, digits only.
bool parse_cost_nodes(const std::string& text, int* out) {
  if (text.empty() || text.size() > 3) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  const int v = std::atoi(text.c_str());
  if (v < 1 || v > 128) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool sarif = false;
  bool dataflow = false;
  bool cost = false;
  int cost_nodes = 2;
  bool werror = false;
  std::vector<std::string> inputs;
  parade::translator::AnalyzeOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::fprintf(stdout, "parade_lint 0.6.0\n");
      return 0;
    }
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--dataflow") {
      dataflow = true;
    } else if (arg == "--cost") {
      cost = true;
    } else if (arg.rfind("--cost=", 0) == 0) {
      cost = true;
      if (!parse_cost_nodes(arg.substr(7), &cost_nodes)) {
        std::fprintf(stderr, "parade_lint: bad --cost node count '%s'\n",
                     arg.substr(7).c_str());
        return 2;
      }
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      auto bytes = parade::translator::parse_threshold_bytes(arg.substr(12));
      if (!bytes.is_ok()) {
        std::fprintf(stderr, "parade_lint: %s\n",
                     bytes.status().to_string().c_str());
        return 2;
      }
      options.mp_threshold_bytes = bytes.value();
    } else if (arg.rfind("-", 0) == 0) {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty() || (json && sarif) || (cost && sarif)) return usage();

  bool failed = false;
  bool broken = false;
  std::vector<std::pair<std::string, parade::translator::Analysis>> analyzed;
  for (const std::string& input : inputs) {
    std::ifstream in(input);
    if (!in) {
      std::fprintf(stderr, "parade_lint: cannot open %s\n", input.c_str());
      broken = true;
      continue;
    }
    std::ostringstream source;
    source << in.rdbuf();
    auto tokens = parade::translator::lex(source.str());
    if (!tokens.is_ok()) {
      std::fprintf(stderr, "parade_lint: %s: %s\n", input.c_str(),
                   tokens.status().to_string().c_str());
      broken = true;
      continue;
    }
    auto unit = parade::translator::parse(std::move(tokens).value());
    if (!unit.is_ok()) {
      std::fprintf(stderr, "parade_lint: %s: %s\n", input.c_str(),
                   unit.status().to_string().c_str());
      broken = true;
      continue;
    }
    auto result = parade::translator::analyze(unit.value(), options);
    if (!sarif) {
      std::fputs(json ? (result.to_json(input) + "\n").c_str()
                      : result.to_text(input).c_str(),
                 stdout);
      if (dataflow) {
        std::fputs(result.dataflow_report(input).c_str(), stdout);
      }
      if (cost) {
        const auto report = parade::translator::estimate_message_costs(
            unit.value(), options, result, cost_nodes);
        std::fputs(json ? (report.to_json(input) + "\n").c_str()
                        : report.to_text(input).c_str(),
                   stdout);
      }
    }
    if (result.has_errors() ||
        (werror &&
         result.count(parade::translator::Severity::kWarning) > 0)) {
      failed = true;
    }
    analyzed.emplace_back(input, std::move(result));
  }
  if (sarif && !analyzed.empty()) {
    std::fputs((parade::translator::sarif_report(analyzed) + "\n").c_str(),
               stdout);
  }
  // Translation-decision counters (xlat.analyze.*) flow to the standard
  // JSON/CSV exports when PARADE_METRICS is set.
  parade::obs::Registry::instance().export_if_configured("parade_lint");
  if (broken) return 2;
  return failed ? 1 : 0;
}

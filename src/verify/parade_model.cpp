// parade_model: explicit-state model checker for the HLRC/migratory-home
// DSM protocol (docs/MODEL_CHECKING.md).
//
//   parade_model list
//   parade_model explore --scenario=NAME [--mutation=NAME]
//                        [--max-states=N] [--max-depth=N]
//                        [--write-trace=PATH]
//   parade_model replay [--check] PATH
//   parade_model mutants [--max-states=N] [--max-depth=N]
//   parade_model --version
//
// Exit codes: 0 success (clean fixed point / trace check passed / every
// mutant detected), 1 violation found (explore) or a check failed,
// 2 usage, 3 exploration budget exhausted before a fixed point,
// 4 unreadable or malformed trace file.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "verify/checker.hpp"
#include "verify/model.hpp"

namespace {

using parade::verify::Action;
using parade::verify::Budget;
using parade::verify::ExploreResult;
using parade::verify::Model;
using parade::verify::ReplayResult;
using parade::verify::Scenario;
using parade::verify::TraceFile;
namespace rules = parade::dsm::rules;

constexpr const char* kVersion = "parade_model 0.4.0";

int usage() {
  std::fprintf(
      stderr,
      "usage: parade_model list\n"
      "       parade_model explore --scenario=NAME [--mutation=NAME]\n"
      "                            [--max-states=N] [--max-depth=N]\n"
      "                            [--write-trace=PATH]\n"
      "       parade_model replay [--check] PATH\n"
      "       parade_model mutants [--max-states=N] [--max-depth=N]\n"
      "       parade_model --version\n");
  return 2;
}

void print_violation(const parade::verify::Violation& violation,
                     const std::vector<Action>& trace) {
  std::printf("violation: %s (%s)\n", violation.invariant.c_str(),
              violation.detail.c_str());
  std::printf("counterexample (%zu actions):\n", trace.size());
  for (const Action& action : trace) {
    std::printf("  %s\n", parade::verify::to_string(action).c_str());
  }
}

bool parse_budget_flag(const std::string& arg, Budget* budget) {
  if (arg.rfind("--max-states=", 0) == 0) {
    budget->max_states = std::stoull(arg.substr(13));
    return true;
  }
  if (arg.rfind("--max-depth=", 0) == 0) {
    budget->max_depth = std::stoull(arg.substr(12));
    return true;
  }
  return false;
}

int cmd_list() {
  for (const Scenario& s : parade::verify::standard_scenarios()) {
    std::printf("%-12s %d nodes, %d page(s), %d interval(s), drop=%d dup=%d,"
                " barrier=%s%s  %s\n",
                s.name.c_str(), s.nodes, s.pages, s.intervals, s.drop_budget,
                s.dup_budget,
                parade::Topology{0, s.nodes, s.fanout}.describe().c_str(),
                s.sharded_homes ? ", sharded" : "", s.description.c_str());
  }
  std::printf("mutations:\n");
  for (const auto& info : rules::kMutations) {
    std::printf("  %-22s %s\n", info.name, info.summary);
  }
  return 0;
}

int cmd_explore(const std::vector<std::string>& args) {
  std::string scenario_name;
  std::string mutation_name = "none";
  std::string trace_path;
  Budget budget;
  for (const std::string& arg : args) {
    if (arg.rfind("--scenario=", 0) == 0) {
      scenario_name = arg.substr(11);
    } else if (arg.rfind("--mutation=", 0) == 0) {
      mutation_name = arg.substr(11);
    } else if (arg.rfind("--write-trace=", 0) == 0) {
      trace_path = arg.substr(14);
    } else if (!parse_budget_flag(arg, &budget)) {
      return usage();
    }
  }
  const Scenario* scenario = parade::verify::find_scenario(scenario_name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "parade_model: unknown scenario '%s'\n",
                 scenario_name.c_str());
    return 2;
  }
  const auto mutation = rules::mutation_from_name(mutation_name);
  if (!mutation) {
    std::fprintf(stderr, "parade_model: unknown mutation '%s'\n",
                 mutation_name.c_str());
    return 2;
  }

  Model model(*scenario, *mutation);
  ExploreResult result = parade::verify::explore(model, budget);
  std::printf("scenario %s, mutation %s: %llu states, %llu transitions\n",
              scenario->name.c_str(), rules::to_string(*mutation),
              static_cast<unsigned long long>(result.states),
              static_cast<unsigned long long>(result.transitions));
  if (result.violation) {
    std::vector<Action> trace = parade::verify::minimize(model, result.trace);
    print_violation(*result.violation, trace);
    if (!trace_path.empty()) {
      TraceFile file;
      file.scenario = scenario->name;
      file.mutation = rules::to_string(*mutation);
      file.violation = result.violation->invariant;
      file.actions = trace;
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "parade_model: cannot write %s\n",
                     trace_path.c_str());
        return 4;
      }
      out << parade::verify::format_trace(file);
      std::printf("trace written to %s\n", trace_path.c_str());
    }
    return 1;
  }
  if (result.states_exhausted || result.depth_pruned) {
    std::printf("no violation, but exploration was %s before a fixed point\n",
                result.states_exhausted ? "capped by --max-states"
                                        : "pruned by --max-depth");
    return 3;
  }
  std::printf("fixed point: no violations\n");
  return 0;
}

int cmd_replay(const std::vector<std::string>& args) {
  bool check = false;
  std::string path;
  for (const std::string& arg : args) {
    if (arg == "--check") {
      check = true;
    } else if (arg.rfind("-", 0) == 0 || !path.empty()) {
      return usage();
    } else {
      path = arg;
    }
  }
  if (path.empty()) return usage();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "parade_model: cannot open %s\n", path.c_str());
    return 4;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto trace = parade::verify::parse_trace(text.str(), &error);
  if (!trace) {
    std::fprintf(stderr, "parade_model: %s: %s\n", path.c_str(),
                 error.c_str());
    return 4;
  }
  const Scenario* scenario = parade::verify::find_scenario(trace->scenario);
  if (scenario == nullptr) {
    std::fprintf(stderr, "parade_model: %s: unknown scenario '%s'\n",
                 path.c_str(), trace->scenario.c_str());
    return 4;
  }
  const auto mutation = rules::mutation_from_name(trace->mutation);
  if (!mutation) {
    std::fprintf(stderr, "parade_model: %s: unknown mutation '%s'\n",
                 path.c_str(), trace->mutation.c_str());
    return 4;
  }

  Model mutated(*scenario, *mutation);
  ReplayResult result = parade::verify::replay(mutated, trace->actions);
  if (!result.feasible) {
    std::fprintf(stderr,
                 "parade_model: %s: action %zu not applicable under "
                 "mutation %s\n",
                 path.c_str(), result.violation_index,
                 trace->mutation.c_str());
    return 1;
  }
  if (result.violation) {
    std::printf("replay hits %s after %zu actions: %s\n",
                result.violation->invariant.c_str(),
                result.violation_index + 1,
                result.violation->detail.c_str());
  } else {
    std::printf("replay runs %zu actions without violation\n",
                trace->actions.size());
  }

  if (!check) return 0;

  // --check: the trace must still discriminate — the recorded violation
  // under the recorded mutation, and (for mutant traces) a clean pass of
  // the same action prefix under the unmutated rules.
  bool ok = true;
  if (!result.violation || result.violation->invariant != trace->violation) {
    std::fprintf(stderr,
                 "parade_model: %s: expected violation %s under mutation "
                 "%s, got %s\n",
                 path.c_str(), trace->violation.c_str(),
                 trace->mutation.c_str(),
                 result.violation ? result.violation->invariant.c_str()
                                  : "none");
    ok = false;
  }
  if (*mutation != rules::Mutation::kNone) {
    Model clean(*scenario, rules::Mutation::kNone);
    ReplayResult clean_result =
        parade::verify::replay(clean, trace->actions);
    // The unmutated rules may legitimately diverge mid-trace (a mutant can
    // enable actions the clean protocol never takes); what they must never
    // do is reproduce a violation.
    if (clean_result.violation) {
      std::fprintf(stderr,
                   "parade_model: %s: unmutated rules also violate %s\n",
                   path.c_str(),
                   clean_result.violation->invariant.c_str());
      ok = false;
    }
  }
  if (ok) std::printf("check passed\n");
  return ok ? 0 : 1;
}

int cmd_mutants(const std::vector<std::string>& args) {
  Budget budget;
  for (const std::string& arg : args) {
    if (!parse_budget_flag(arg, &budget)) return usage();
  }

  bool all_ok = true;
  // Unmutated rules must pass every standard scenario clean...
  for (const Scenario& scenario : parade::verify::standard_scenarios()) {
    Model model(scenario, rules::Mutation::kNone);
    ExploreResult result = parade::verify::explore(model, budget);
    if (result.clean_fixed_point()) {
      std::printf("clean %-14s ok (%llu states)\n", scenario.name.c_str(),
                  static_cast<unsigned long long>(result.states));
      continue;
    }
    all_ok = false;
    if (result.violation) {
      std::printf("clean %-14s FAILED: %s\n", scenario.name.c_str(),
                  result.violation->invariant.c_str());
      std::vector<Action> trace =
          parade::verify::minimize(model, result.trace);
      print_violation(*result.violation, trace);
    } else {
      std::printf("clean %-14s FAILED: budget exhausted\n",
                  scenario.name.c_str());
    }
  }
  // ...and every planted mutation must produce a counterexample somewhere.
  for (const auto& info : rules::kMutations) {
    bool detected = false;
    std::string where;
    std::string invariant;
    for (const Scenario& scenario : parade::verify::standard_scenarios()) {
      Model model(scenario, info.mutation);
      ExploreResult result = parade::verify::explore(model, budget);
      if (result.violation) {
        detected = true;
        where = scenario.name;
        invariant = result.violation->invariant;
        break;
      }
    }
    if (detected) {
      std::printf("mutant %-25s detected in %s (%s)\n", info.name,
                  where.c_str(), invariant.c_str());
    } else {
      std::printf("mutant %-25s NOT DETECTED\n", info.name);
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string cmd = args.front();
  args.erase(args.begin());
  if (cmd == "--version") {
    std::printf("%s\n", kVersion);
    return 0;
  }
  if (cmd == "list") return cmd_list();
  if (cmd == "explore") return cmd_explore(args);
  if (cmd == "replay") return cmd_replay(args);
  if (cmd == "mutants") return cmd_mutants(args);
  return usage();
}

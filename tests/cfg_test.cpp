// CFG construction and dataflow-engine tests: graph shape for the structured
// control forms (if/else, nested loops, early return inside constructs,
// worksharing/nowait tagging), BitSet lattice algebra, hand-built fixpoint
// problems in all four direction/meet combinations, and the subset property
// over the golden corpus — the flow-sensitive analyzer may only ever
// *suppress* def-use findings, never invent new ones, for the legacy codes.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "translator/analyze.hpp"
#include "translator/cfg.hpp"
#include "translator/dataflow.hpp"
#include "translator/parser.hpp"
#include "translator/token.hpp"

namespace parade::translator {
namespace {

const Stmt* find_pragma(const Stmt& stmt) {
  if (stmt.kind == StmtKind::kPragma) return &stmt;
  for (const Stmt& child : stmt.children()) {
    if (const Stmt* p = find_pragma(child)) return p;
  }
  return nullptr;
}

/// A parsed unit and the CFG of its first OpenMP construct.
struct Built {
  TranslationUnit unit;
  Cfg cfg;

  /// True when `e` names the variable `name`.
  bool names(const CfgEvent& e, const char* name) const {
    return e.sym != kNoSym && unit.name(e.sym) == name;
  }
};

Built cfg_of(const std::string& source) {
  auto tokens = lex(source);
  EXPECT_TRUE(tokens.is_ok()) << tokens.status().to_string();
  auto unit = parse(tokens.value());
  EXPECT_TRUE(unit.is_ok()) << unit.status().to_string();
  Built built{std::move(unit).value(), Cfg{}};
  for (const TopItem& item : built.unit.items) {
    if (item.kind != TopItem::Kind::kFunction || item.function.body == nullptr) {
      continue;
    }
    if (const Stmt* pragma = find_pragma(*item.function.body)) {
      build_cfg(*pragma, built.unit, &built.cfg);
      return built;
    }
  }
  ADD_FAILURE() << "no OpenMP construct found in source";
  return built;
}

std::size_t count_events(const Cfg& cfg, CfgEventKind kind) {
  std::size_t n = 0;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (const CfgEvent& e : cfg.events(b)) {
      if (e.kind == kind) ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// CFG shape

TEST(CfgShape, IfElseMakesDiamond) {
  Built built = cfg_of(
      "int x;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    if (x > 0) {\n"
      "      x = 1;\n"
      "    } else {\n"
      "      x = 2;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  Cfg& cfg = built.cfg;
  ASSERT_EQ(cfg.branches.size(), 1u);
  EXPECT_TRUE(cfg.branches[0].has_else);
  // The decision block has two successors, and both arms rejoin: every block
  // is reachable from entry.
  bool saw_decision = false;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (cfg.succs(b).size() >= 2) saw_decision = true;
  }
  EXPECT_TRUE(saw_decision);
  std::vector<char> reach;
  cfg.reachable(&reach);
  for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
    EXPECT_TRUE(reach[i]) << "block " << i << " unreachable";
  }
  EXPECT_TRUE(cfg.loops.empty());
}

TEST(CfgShape, NestedLoopsNestAndCarryBackEdges) {
  const Built built = cfg_of(
      "int a;\n"
      "int main(void) {\n"
      "  int i, j;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    for (i = 0; i < 4; i++) {\n"
      "      for (j = 0; j < 4; j++) {\n"
      "        a = a + 1;\n"
      "      }\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Cfg& cfg = built.cfg;
  ASSERT_EQ(cfg.loops.size(), 2u);
  // One loop is top-level, the other nests inside it.
  const int outer = cfg.loops[0].parent == -1 ? 0 : 1;
  const int inner = 1 - outer;
  EXPECT_EQ(cfg.loops[static_cast<std::size_t>(outer)].parent, -1);
  EXPECT_EQ(cfg.loops[static_cast<std::size_t>(inner)].parent, outer);
  EXPECT_FALSE(cfg.loops[0].worksharing);
  // Back edges: each loop head has a predecessor other than its entry path,
  // so the edge count exceeds a DAG's (blocks - 1 minimum spanning edges).
  const int inner_head = cfg.loops[static_cast<std::size_t>(inner)].head;
  ASSERT_GE(inner_head, 0);
  EXPECT_GE(cfg.preds(static_cast<std::size_t>(inner_head)).size(), 2u);
  // The innermost statement's block sits inside both loops.
  bool found_write = false;
  for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
    for (const CfgEvent& e : cfg.events(i)) {
      if (e.kind == CfgEventKind::kWrite && built.names(e, "a")) {
        found_write = true;
        EXPECT_TRUE(cfg.block_in_loop(static_cast<int>(i), inner));
        EXPECT_TRUE(cfg.block_in_loop(static_cast<int>(i), outer));
      }
    }
  }
  EXPECT_TRUE(found_write);
}

TEST(CfgShape, EarlyReturnTerminatesPathInsideConstruct) {
  Built built = cfg_of(
      "int x;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    if (x > 0) {\n"
      "      return 1;\n"
      "    }\n"
      "    x = 5;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  Cfg& cfg = built.cfg;
  // Both the early return and the construct's fall-through end reach exit.
  EXPECT_GE(cfg.preds(Cfg::kExit).size(), 2u);
  // The write after the guard is still reachable (the if has a fall-through
  // edge around the returning arm).
  std::vector<char> reach;
  cfg.reachable(&reach);
  bool write_reachable = false;
  for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
    for (const CfgEvent& e : cfg.events(i)) {
      if (e.kind == CfgEventKind::kWrite && built.names(e, "x") && reach[i]) {
        write_reachable = true;
      }
    }
  }
  EXPECT_TRUE(write_reachable);
}

TEST(CfgShape, DeadCodeAfterReturnIsUnreachable) {
  Built built = cfg_of(
      "int x;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    return 0;\n"
      "    x = 5;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  Cfg& cfg = built.cfg;
  std::vector<char> reach;
  cfg.reachable(&reach);
  for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
    for (const CfgEvent& e : cfg.events(i)) {
      if (e.kind == CfgEventKind::kWrite && built.names(e, "x")) {
        EXPECT_FALSE(reach[i]) << "write after return should be dead";
      }
    }
  }
}

TEST(CfgShape, GotoLabelInSwitchIsEnteredFromRegionEntry) {
  const Built built = cfg_of(
      "int x, y;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    if (x) y = 0;\n"
      "    switch (x) {\n"
      "      case 0:\n"
      "        y = 1;\n"
      "        break;\n"
      "      again:\n"
      "        y = 2;\n"
      "        break;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Cfg& cfg = built.cfg;
  // The block that writes y on source line `line`.
  auto writer = [&](int line) -> std::size_t {
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      for (const CfgEvent& e : cfg.events(b)) {
        if (e.kind == CfgEventKind::kWrite && built.names(e, "y") &&
            e.line == line) {
          return b;
        }
      }
    }
    ADD_FAILURE() << "no write of y on line " << line;
    return 0;
  };
  auto entered_from_entry = [&](std::size_t b) {
    for (const int p : cfg.preds(b)) {
      if (p == Cfg::kEntry) return true;
    }
    return false;
  };
  // Gotos are not followed, so a goto target may run before anything
  // earlier in the region; a case label is entered from the switch's
  // decision, which follows the `if`, not from the entry.
  EXPECT_TRUE(entered_from_entry(writer(11)));   // again: y = 2;
  EXPECT_FALSE(entered_from_entry(writer(8)));   // case 0: y = 1;
}

TEST(CfgShape, WorksharingLoopAndNowaitAreTagged) {
  const Built built = cfg_of(
      "int a;\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp for nowait\n"
      "    for (i = 0; i < 8; i++) {\n"
      "      a = i;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Cfg& cfg = built.cfg;
  ASSERT_EQ(cfg.loops.size(), 1u);
  EXPECT_TRUE(cfg.loops[0].worksharing);
  ASSERT_EQ(cfg.nowaits.size(), 1u);
  EXPECT_EQ(count_events(cfg, CfgEventKind::kNowaitExit), 1u);
  // nowait means no implicit barrier at the construct end.
  EXPECT_EQ(count_events(cfg, CfgEventKind::kBarrier), 0u);
}

TEST(CfgShape, WorksharingWithoutNowaitEmitsImplicitBarrier) {
  const Built built = cfg_of(
      "int a;\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp for\n"
      "    for (i = 0; i < 8; i++) {\n"
      "      a = i;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Cfg& cfg = built.cfg;
  EXPECT_TRUE(cfg.nowaits.empty());
  EXPECT_EQ(count_events(cfg, CfgEventKind::kBarrier), 1u);
}

TEST(CfgShape, CriticalBodyEventsAreGuarded) {
  const Built built = cfg_of(
      "int total;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp critical\n"
      "    {\n"
      "      total = total + 1;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Cfg& cfg = built.cfg;
  bool saw_guarded_write = false;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (const CfgEvent& e : cfg.events(b)) {
      if (e.kind == CfgEventKind::kWrite && built.names(e, "total")) {
        saw_guarded_write = true;
        EXPECT_TRUE(e.in_critical);
      }
    }
  }
  EXPECT_TRUE(saw_guarded_write);
  EXPECT_GE(count_events(cfg, CfgEventKind::kSync), 1u);
}

// ---------------------------------------------------------------------------
// BitSet lattice

TEST(BitSetOps, SetTestSubtractAndTailTrim) {
  // 40 and 64 bits live in the inline word, 70 on the heap.
  for (const std::size_t bits : {std::size_t{70}, std::size_t{40},
                                 std::size_t{64}}) {
    SCOPED_TRACE(bits);
    const std::size_t last = bits - 1;
    BitSet a(bits);
    a.set(0);
    a.set(last);
    EXPECT_TRUE(a.test(0));
    EXPECT_TRUE(a.test(last));
    EXPECT_FALSE(a.test(bits / 2));
    EXPECT_TRUE(a.any());

    BitSet b(bits);
    b.set(last);
    BitSet c = a;
    c.subtract(b);
    EXPECT_TRUE(c.test(0));
    EXPECT_FALSE(c.test(last));

    BitSet top(bits);
    top.set_all();
    BitSet each(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      EXPECT_TRUE(top.test(i));
      each.set(i);
    }
    EXPECT_TRUE(top == each);  // set_all leaves no bit past the end
    BitSet meet = top;
    meet &= a;
    EXPECT_TRUE(meet == a);

    BitSet empty(bits);
    EXPECT_FALSE(empty.any());
    empty |= a;
    EXPECT_TRUE(empty == a);
  }
}

// ---------------------------------------------------------------------------
// Dataflow engine over hand-built graphs

/// Diamond: entry -> 2 -> {3, 4} -> 5 -> exit.
Cfg diamond() {
  Cfg cfg;
  cfg.blocks.resize(6);
  cfg.set_edges({{Cfg::kEntry, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5},
                 {5, Cfg::kExit}});
  return cfg;
}

DataflowProblem problem_for(const Cfg& cfg, FlowDirection dir, MeetOp meet,
                            std::size_t bits) {
  DataflowProblem p;
  p.direction = dir;
  p.meet = meet;
  p.bits = bits;
  p.transfer.resize(cfg.blocks.size());
  for (Transfer& t : p.transfer) {
    t.gen = BitSet(bits);
    t.kill = BitSet(bits);
  }
  p.boundary = BitSet(bits);
  return p;
}

TEST(Dataflow, ForwardUnionReachesJoinFromOneArm) {
  const Cfg cfg = diamond();
  DataflowProblem p =
      problem_for(cfg, FlowDirection::kForward, MeetOp::kUnion, 1);
  p.transfer[3].gen.set(0);  // defined on the then-arm only
  const FlowResult r = solve_dataflow(cfg, p);
  EXPECT_TRUE(r.in[5].test(0));   // may-reach at the join
  EXPECT_FALSE(r.in[4].test(0));  // not on the sibling arm
  EXPECT_TRUE(r.in[Cfg::kExit].test(0));
}

TEST(Dataflow, ForwardIntersectRequiresBothArms) {
  const Cfg cfg = diamond();
  {
    DataflowProblem p =
        problem_for(cfg, FlowDirection::kForward, MeetOp::kIntersect, 1);
    p.transfer[3].gen.set(0);  // one arm only
    const FlowResult r = solve_dataflow(cfg, p);
    EXPECT_FALSE(r.in[5].test(0)) << "must-fact cannot survive a one-arm def";
  }
  {
    DataflowProblem p =
        problem_for(cfg, FlowDirection::kForward, MeetOp::kIntersect, 1);
    p.transfer[3].gen.set(0);
    p.transfer[4].gen.set(0);  // both arms
    const FlowResult r = solve_dataflow(cfg, p);
    EXPECT_TRUE(r.in[5].test(0));
  }
}

TEST(Dataflow, KillStopsPropagation) {
  const Cfg cfg = diamond();
  DataflowProblem p =
      problem_for(cfg, FlowDirection::kForward, MeetOp::kUnion, 1);
  p.boundary.set(0);         // fact holds at entry
  p.transfer[5].kill.set(0); // killed at the join
  const FlowResult r = solve_dataflow(cfg, p);
  EXPECT_TRUE(r.in[5].test(0));
  EXPECT_FALSE(r.out[5].test(0));
  EXPECT_FALSE(r.in[Cfg::kExit].test(0));
}

TEST(Dataflow, BackwardUnionIsLiveness) {
  const Cfg cfg = diamond();
  DataflowProblem p =
      problem_for(cfg, FlowDirection::kBackward, MeetOp::kUnion, 1);
  p.transfer[5].gen.set(0);  // used at the join
  p.transfer[3].kill.set(0); // defined (killed backward) on the then-arm
  // Backward flow order: in[b] is the meet over successors (live-out),
  // out[b] is the post-transfer fact (live-in at the block's start).
  const FlowResult r = solve_dataflow(cfg, p);
  EXPECT_TRUE(r.in[3].test(0));    // live-out of the then-arm (join uses it)
  EXPECT_FALSE(r.out[3].test(0));  // dead above the arm's own def
  EXPECT_TRUE(r.out[4].test(0));   // live straight through the else-arm
  EXPECT_TRUE(r.in[2].test(0));    // live at the decision (via else)
}

TEST(Dataflow, LoopBackEdgeDoesNotFakeMustFacts) {
  // entry -> 2(head) -> 3(body, gen) -> 2 ; 2 -> exit. A must-fact generated
  // in the body may not appear at the head's IN: the first iteration arrives
  // from entry without it.
  Cfg cfg;
  cfg.blocks.resize(4);
  cfg.set_edges({{Cfg::kEntry, 2}, {2, 3}, {3, 2}, {2, Cfg::kExit}});
  DataflowProblem p =
      problem_for(cfg, FlowDirection::kForward, MeetOp::kIntersect, 1);
  p.transfer[3].gen.set(0);
  const FlowResult r = solve_dataflow(cfg, p);
  EXPECT_FALSE(r.in[2].test(0));
  EXPECT_FALSE(r.in[Cfg::kExit].test(0));
  EXPECT_GT(r.iterations, 0);
}

// ---------------------------------------------------------------------------
// Subset property: flow-sensitive ⊆ flow-insensitive on the legacy codes

using DiagKey = std::tuple<std::string, int, std::string>;

std::multiset<DiagKey> legacy_keys(const std::vector<Diagnostic>& diags) {
  static const char* kLegacy[] = {kDiagRaceSharedWrite, kDiagPrivateUninitRead,
                                  kDiagNowaitDependentRead};
  std::multiset<DiagKey> keys;
  for (const Diagnostic& d : diags) {
    for (const char* code : kLegacy) {
      if (d.code == code) keys.insert({d.code, d.line, d.var});
    }
  }
  return keys;
}

void check_subset_property(const std::string& source, const std::string& tag) {
  AnalyzeOptions insensitive;
  insensitive.flow_sensitive = false;
  AnalyzeOptions sensitive;
  sensitive.flow_sensitive = true;

  auto base = analyze_source(source, insensitive);
  auto flow = analyze_source(source, sensitive);
  ASSERT_TRUE(base.is_ok()) << tag;
  ASSERT_TRUE(flow.is_ok()) << tag;

  const std::multiset<DiagKey> base_keys = legacy_keys(base.value().diagnostics);
  const std::multiset<DiagKey> flow_keys = legacy_keys(flow.value().diagnostics);
  // Every surviving flow-sensitive finding exists in the def-use result.
  for (const DiagKey& key : flow_keys) {
    EXPECT_GT(base_keys.count(key), 0u)
        << tag << ": flow pass invented [" << std::get<0>(key) << "] at line "
        << std::get<1>(key);
  }
  // Survivors plus suppressions account for exactly the def-use findings.
  std::multiset<DiagKey> flow_total = flow_keys;
  for (const DiagKey& key : legacy_keys(flow.value().suppressed)) {
    flow_total.insert(key);
  }
  EXPECT_EQ(flow_total, base_keys) << tag;
}

TEST(FlowSubsetProperty, GoldenCorpusFiles) {
  const char* corpus[] = {
      "tests/translator_inputs/pi.c",
      "tests/translator_inputs/helmholtz.c",
      "examples/openmp_pi.c",
  };
  for (const char* rel : corpus) {
    const std::string path = std::string(PARADE_SOURCE_DIR) + "/" + rel;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    check_subset_property(text.str(), rel);
  }
}

TEST(FlowSubsetProperty, AdversarialBranchPrograms) {
  const char* programs[] = {
      // Race both flow-visible and suppressible (dead arm).
      "int g;\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 8; i++) {\n"
      "    if (i > 4) { g = i; } else { g = i + 1; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n",
      // Uninit private read guarded on one path only.
      "int main(void) {\n"
      "  int t, c;\n"
      "  #pragma omp parallel private(t)\n"
      "  {\n"
      "    if (c > 0) { t = 1; }\n"
      "    c = t + 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n",
      // nowait with barrier on one arm of an if.
      "int a, b;\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp for nowait\n"
      "    for (i = 0; i < 8; i++) { a = i; }\n"
      "    if (b > 0) {\n"
      "      #pragma omp barrier\n"
      "    }\n"
      "    b = a;\n"
      "  }\n"
      "  return 0;\n"
      "}\n",
      // Dead code after return inside the construct.
      "int g;\n"
      "int main(void) {\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    return 0;\n"
      "    g = 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n",
  };
  int index = 0;
  for (const char* program : programs) {
    check_subset_property(program, "program #" + std::to_string(index++));
  }
}

}  // namespace
}  // namespace parade::translator

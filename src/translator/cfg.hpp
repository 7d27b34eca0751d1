// Control-flow graph construction over the translator AST (the static-
// analysis substrate under the flow-sensitive analyzer, docs/ANALYZER.md).
//
// A Cfg is built per parallel-region body (or any statement subtree). Basic
// blocks carry an ordered event sequence — variable reads/writes, barrier and
// sync points, nowait-construct exits — and edges model if/else, loops
// (including back edges), switch approximation, and early exits (`return`,
// `break`, `continue` terminate their block). OpenMP constructs contribute
// region structure: worksharing loops are tagged, their implicit barriers
// become events, `single`/`master` bodies get a bypass edge (not every thread
// executes them), and `critical`/`atomic` bodies mark their events as
// lock-guarded. The iterative dataflow engine (translator/dataflow.hpp) runs
// client analyses over this graph.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "translator/ast.hpp"

namespace parade::translator {

enum class CfgEventKind {
  kRead,        // variable read
  kWrite,       // variable write (incl. array/member stores, base attributed)
  kDecl,        // declaration binds `name` here (region-local)
  kBarrier,     // explicit barrier or implicit construct-end barrier
  kSync,        // flush / critical entry: a consistency action, not a barrier
  kNowaitExit,  // a nowait worksharing construct ends here (id = construct)
};

struct CfgEvent {
  CfgEventKind kind = CfgEventKind::kRead;
  Sym sym = kNoSym;          // variable (read/write/decl), else kNoSym
  int line = 0;
  int id = -1;               // kNowaitExit: index into Cfg::nowaits
  bool in_critical = false;  // event sits inside a critical/atomic body
  bool loop_cond = false;    // read evaluated in a loop condition
};

/// A basic block: ranges of the Cfg's one event array and one edge array
/// (read them through Cfg::events, Cfg::succs and Cfg::preds).
struct CfgBlock {
  std::uint32_t events = 0;
  std::uint32_t n_events = 0;
  std::uint32_t succs = 0;
  std::uint32_t n_succs = 0;
  std::uint32_t preds = 0;
  std::uint32_t n_preds = 0;
  int line = 0;   // first source line contributing to the block
  int loop = -1;  // innermost enclosing CfgLoop id (-1 = none)
};

struct CfgLoop {
  int parent = -1;  // enclosing loop id (-1 = top level)
  int line = 0;
  int head = -1;              // loop header block (condition evaluation)
  bool worksharing = false;   // OpenMP worksharing loop (iterations split)
};

/// One if/else decision inside the region, with the number of *explicit*
/// barriers built while each arm was constructed (barrier.unmatched client).
struct CfgBranch {
  int line = 0;
  bool has_else = false;
  int then_barriers = 0;
  int else_barriers = 0;
};

/// One nowait worksharing construct; kNowaitExit events reference these by
/// index.
struct CfgNowait {
  int line = 0;
};

/// Working storage of a CFG build, kept by the Cfg so that building into it
/// again reuses the capacity: the (block, event) and (from, to) pairs in
/// build order, and the walk's stacks.
struct CfgScratch {
  struct Loop {
    int id = -1;
    int continue_target = -1;  // latch (for) or head/cond block
    int break_target = -1;
  };
  std::vector<std::pair<int, CfgEvent>> events;
  std::vector<std::pair<int, int>> edges;
  std::vector<Loop> loops;
  std::vector<int> break_targets;
  std::vector<int> switch_decisions;  // decision block of each open switch
  std::vector<const Stmt*> arms;      // arms of the sections being walked
  std::vector<int> work;              // reachable()'s stack
};

/// A flat CFG: blocks index into one event array and one edge array, each
/// grouped by block once at the end of the build, so a build allocates per
/// array, not per block. A Cfg built into again reuses its arrays.
struct Cfg {
  std::vector<CfgBlock> blocks;  // [0] = entry, [1] = exit
  std::vector<CfgEvent> event_list;  // grouped by block, in build order
  std::vector<int> edge_list;  // every block's successors, then predecessors
  std::vector<CfgLoop> loops;
  std::vector<CfgBranch> branches;
  std::vector<CfgNowait> nowaits;
  std::vector<Sym> locals;  // names declared inside the region

  static constexpr int kEntry = 0;
  static constexpr int kExit = 1;

  std::span<const CfgEvent> events(std::size_t block) const {
    const CfgBlock& b = blocks[block];
    return pool_range(event_list, b.events, b.n_events);
  }
  std::span<const int> succs(std::size_t block) const {
    const CfgBlock& b = blocks[block];
    return pool_range(edge_list, b.succs, b.n_succs);
  }
  std::span<const int> preds(std::size_t block) const {
    const CfgBlock& b = blocks[block];
    return pool_range(edge_list, b.preds, b.n_preds);
  }
  bool is_local(Sym sym) const;

  /// Sets the edges of `blocks` from (from, to) pairs: each block's
  /// successors and predecessors keep the pairs' order.
  void set_edges(const std::vector<std::pair<int, int>>& edges);

  std::size_t edge_count() const;
  /// Sets (*seen)[i] when blocks[i] is reachable from entry (forward edges
  /// only; the fixpoint over back edges changes nothing for reachability).
  /// Reuses `seen`'s storage and the scratch stack.
  void reachable(std::vector<char>* seen);
  /// True when `block`'s innermost-loop chain passes through `loop`.
  bool block_in_loop(int block, int loop) const;

  CfgScratch scratch;
};

/// Builds the CFG for a statement subtree (typically a parallel-region body)
/// of `unit` into `cfg`, reusing its arrays.
void build_cfg(const Stmt& body, const TranslationUnit& unit, Cfg* cfg);

}  // namespace parade::translator

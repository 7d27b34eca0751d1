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

#include <set>
#include <string>
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
  std::string name;          // variable (read/write/decl), else empty
  int line = 0;
  int id = -1;               // kNowaitExit: index into Cfg::nowaits
  bool in_critical = false;  // event sits inside a critical/atomic body
  bool loop_cond = false;    // read evaluated in a loop condition
};

struct CfgBlock {
  std::vector<CfgEvent> events;
  std::vector<int> succs;
  std::vector<int> preds;
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

struct Cfg {
  std::vector<CfgBlock> blocks;  // [0] = entry, [1] = exit
  std::vector<CfgLoop> loops;
  std::vector<CfgBranch> branches;
  std::vector<CfgNowait> nowaits;
  std::set<std::string> locals;  // names declared inside the region

  static constexpr int kEntry = 0;
  static constexpr int kExit = 1;

  std::size_t edge_count() const;
  /// blocks[i] reachable from entry (forward edges only; the fixpoint over
  /// back edges changes nothing for reachability).
  std::vector<char> reachable() const;
  /// True when `block`'s innermost-loop chain passes through `loop`.
  bool block_in_loop(int block, int loop) const;
};

/// Builds the CFG for a statement subtree (typically a parallel-region body)
/// of the unit whose token stream is `tokens`.
Cfg build_cfg(const Stmt& body, const std::vector<Token>& tokens);

}  // namespace parade::translator

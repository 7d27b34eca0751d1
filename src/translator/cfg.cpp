#include "translator/cfg.hpp"

#include <utility>

namespace parade::translator {

std::size_t Cfg::edge_count() const {
  std::size_t edges = 0;
  for (const CfgBlock& b : blocks) edges += b.succs.size();
  return edges;
}

std::vector<char> Cfg::reachable() const {
  std::vector<char> seen(blocks.size(), 0);
  std::vector<int> work{kEntry};
  seen[kEntry] = 1;
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    for (const int s : blocks[static_cast<std::size_t>(b)].succs) {
      if (seen[static_cast<std::size_t>(s)] == 0) {
        seen[static_cast<std::size_t>(s)] = 1;
        work.push_back(s);
      }
    }
  }
  return seen;
}

bool Cfg::block_in_loop(int block, int loop) const {
  int l = blocks[static_cast<std::size_t>(block)].loop;
  while (l >= 0) {
    if (l == loop) return true;
    l = loops[static_cast<std::size_t>(l)].parent;
  }
  return false;
}

namespace {

class CfgBuilder {
 public:
  CfgBuilder(Cfg* cfg, const std::vector<Token>& tokens)
      : cfg_(cfg), tokens_(tokens) {
    cfg_->blocks.resize(2);  // entry, exit
  }

  void build(const Stmt& body) {
    cur_ = Cfg::kEntry;
    walk(body);
    if (!terminated_) edge(cur_, Cfg::kExit);
  }

 private:
  struct LoopCtx {
    int id = -1;
    int continue_target = -1;  // latch (for) or head/cond block
    int break_target = -1;
  };

  int new_block(int line) {
    cfg_->blocks.emplace_back();
    CfgBlock& b = cfg_->blocks.back();
    b.line = line;
    b.loop = loops_.empty() ? -1 : loops_.back().id;
    return static_cast<int>(cfg_->blocks.size()) - 1;
  }

  void edge(int from, int to) {
    cfg_->blocks[static_cast<std::size_t>(from)].succs.push_back(to);
    cfg_->blocks[static_cast<std::size_t>(to)].preds.push_back(from);
  }

  /// Re-opens the flow after a terminator: statements following a `return`
  /// land in a fresh block with no predecessors (statically unreachable).
  void ensure_open(int line) {
    if (!terminated_) return;
    cur_ = new_block(line);
    terminated_ = false;
  }

  void add_event(CfgEvent ev) {
    ev.in_critical = ev.in_critical || critical_depth_ > 0;
    cfg_->blocks[static_cast<std::size_t>(cur_)].events.push_back(
        std::move(ev));
  }

  void add_barrier(int line) {
    add_event({CfgEventKind::kBarrier, "", line, -1, false, false});
    ++explicit_barriers_;
  }

  void add_text_events(const Expr& expr, int line, bool loop_cond = false) {
    const AccessScan& acc = expr.access();
    for (const std::string& name : acc.reads) {
      add_event({CfgEventKind::kRead, name, line, -1, false, loop_cond});
    }
    for (const AccessScan::Write& w : acc.writes) {
      if (w.deref) continue;  // store through a pointer: target unknown
      add_event({CfgEventKind::kWrite, w.name, line, -1, false, false});
    }
  }

  void walk_decl(const Stmt& stmt) {
    ensure_open(stmt.line);
    for (const Declarator& d : stmt.declarators) {
      for (const Expr& dim : d.array_dims) add_text_events(dim, stmt.line);
      add_text_events(d.init, stmt.line);
      if (d.is_function) continue;
      cfg_->locals.insert(d.name);
      add_event({CfgEventKind::kDecl, d.name, stmt.line, -1, false, false});
      if (!d.init.empty()) {
        add_event({CfgEventKind::kWrite, d.name, stmt.line, -1, false, false});
      }
    }
  }

  void walk_raw(const Stmt& stmt) {
    ensure_open(stmt.line);
    // The first token tells jumps ("return", "break", ...) apart.
    const TokenSpan span = stmt.text.span;
    static const Token kNone;
    const Token& kw = span.empty() ? kNone : tokens_[span.begin];
    if (kw.is("return")) {
      add_text_events(stmt.text, stmt.line);
      edge(cur_, Cfg::kExit);
      terminated_ = true;
      return;
    }
    if (kw.is("break")) {
      const int target =
          break_targets_.empty() ? Cfg::kExit : break_targets_.back();
      edge(cur_, target);
      terminated_ = true;
      return;
    }
    if (kw.is("continue")) {
      const int target =
          loops_.empty() ? Cfg::kExit : loops_.back().continue_target;
      edge(cur_, target);
      terminated_ = true;
      return;
    }
    if (kw.is("goto")) {
      // Unstructured flow is not modeled; treat like an exit so nothing
      // after it is assumed reachable on this path.
      add_text_events(stmt.text, stmt.line);
      edge(cur_, Cfg::kExit);
      terminated_ = true;
      return;
    }
    add_text_events(stmt.text, stmt.line);
  }

  void walk_if(const Stmt& stmt) {
    ensure_open(stmt.line);
    add_text_events(stmt.cond, stmt.line);
    const int decision = cur_;
    const int join = new_block(stmt.line);

    CfgBranch branch;
    branch.line = stmt.line;
    branch.has_else = stmt.has_else;

    const int then_block = new_block(stmt.line);
    edge(decision, then_block);
    cur_ = then_block;
    terminated_ = false;
    int barriers_before = explicit_barriers_;
    if (!stmt.children.empty() && stmt.children[0]) walk(*stmt.children[0]);
    branch.then_barriers = explicit_barriers_ - barriers_before;
    if (!terminated_) edge(cur_, join);

    if (stmt.has_else && stmt.children.size() > 1 && stmt.children[1]) {
      const int else_block = new_block(stmt.children[1]->line);
      edge(decision, else_block);
      cur_ = else_block;
      terminated_ = false;
      barriers_before = explicit_barriers_;
      walk(*stmt.children[1]);
      branch.else_barriers = explicit_barriers_ - barriers_before;
      if (!terminated_) edge(cur_, join);
    } else {
      edge(decision, join);
    }
    cfg_->branches.push_back(branch);
    cur_ = join;
    terminated_ = false;
  }

  int open_loop(int line, bool worksharing, int head) {
    CfgLoop loop;
    loop.parent = loops_.empty() ? -1 : loops_.back().id;
    loop.line = line;
    loop.head = head;
    loop.worksharing = worksharing;
    cfg_->loops.push_back(loop);
    return static_cast<int>(cfg_->loops.size()) - 1;
  }

  void walk_while(const Stmt& stmt) {
    ensure_open(stmt.line);
    const int head = new_block(stmt.line);
    edge(cur_, head);
    const int loop_id = open_loop(stmt.line, false, head);
    cfg_->blocks[static_cast<std::size_t>(head)].loop = loop_id;
    const int exit_block = new_block(stmt.line);
    loops_.push_back({loop_id, head, exit_block});
    break_targets_.push_back(exit_block);

    cur_ = head;
    terminated_ = false;
    add_text_events(stmt.cond, stmt.line, /*loop_cond=*/true);
    edge(head, exit_block);
    const int body = new_block(stmt.line);
    edge(head, body);
    cur_ = body;
    if (!stmt.children.empty() && stmt.children[0]) walk(*stmt.children[0]);
    if (!terminated_) edge(cur_, head);

    break_targets_.pop_back();
    loops_.pop_back();
    cur_ = exit_block;
    terminated_ = false;
  }

  void walk_do_while(const Stmt& stmt) {
    ensure_open(stmt.line);
    const int body = new_block(stmt.line);
    edge(cur_, body);
    const int loop_id = open_loop(stmt.line, false, body);
    cfg_->blocks[static_cast<std::size_t>(body)].loop = loop_id;
    const int cond_block = new_block(stmt.line);
    cfg_->blocks[static_cast<std::size_t>(cond_block)].loop = loop_id;
    const int exit_block = new_block(stmt.line);
    loops_.push_back({loop_id, cond_block, exit_block});
    break_targets_.push_back(exit_block);

    cur_ = body;
    terminated_ = false;
    if (!stmt.children.empty() && stmt.children[0]) walk(*stmt.children[0]);
    if (!terminated_) edge(cur_, cond_block);
    cur_ = cond_block;
    terminated_ = false;
    add_text_events(stmt.cond, stmt.line, /*loop_cond=*/true);
    edge(cond_block, body);
    edge(cond_block, exit_block);

    break_targets_.pop_back();
    loops_.pop_back();
    cur_ = exit_block;
    terminated_ = false;
  }

  void walk_for(const Stmt& stmt, bool worksharing) {
    ensure_open(stmt.line);
    const ForHeader& h = stmt.for_header;
    add_text_events(h.init_text, stmt.line);
    const int head = new_block(stmt.line);
    edge(cur_, head);
    const int loop_id = open_loop(stmt.line, worksharing, head);
    cfg_->blocks[static_cast<std::size_t>(head)].loop = loop_id;
    const int latch = new_block(stmt.line);
    cfg_->blocks[static_cast<std::size_t>(latch)].loop = loop_id;
    const int exit_block = new_block(stmt.line);
    loops_.push_back({loop_id, latch, exit_block});
    break_targets_.push_back(exit_block);

    if (h.canonical && !h.var_decl_type.empty()) {
      cfg_->locals.insert(h.loop_var);
    }
    cur_ = head;
    terminated_ = false;
    add_text_events(h.cond_text, stmt.line, /*loop_cond=*/true);
    edge(head, exit_block);
    const int body = new_block(stmt.line);
    edge(head, body);
    cur_ = body;
    if (!stmt.children.empty() && stmt.children[0]) walk(*stmt.children[0]);
    if (!terminated_) edge(cur_, latch);
    cur_ = latch;
    terminated_ = false;
    add_text_events(h.incr_text, stmt.line);
    edge(latch, head);

    break_targets_.pop_back();
    loops_.pop_back();
    cur_ = exit_block;
    terminated_ = false;
  }

  void walk_switch(const Stmt& stmt) {
    ensure_open(stmt.line);
    add_text_events(stmt.cond, stmt.line);
    const int decision = cur_;
    const int join = new_block(stmt.line);
    const int body = new_block(stmt.line);
    // Approximation: control may enter the body (some case matches) or skip
    // it entirely (no case, no default); `break` inside targets the join.
    edge(decision, body);
    edge(decision, join);
    break_targets_.push_back(join);
    cur_ = body;
    terminated_ = false;
    if (!stmt.children.empty() && stmt.children[0]) walk(*stmt.children[0]);
    if (!terminated_) edge(cur_, join);
    break_targets_.pop_back();
    cur_ = join;
    terminated_ = false;
  }

  /// `single` / `master`: one thread executes the body, the rest bypass it.
  void walk_one_thread_body(const Stmt& stmt, bool implicit_barrier) {
    ensure_open(stmt.line);
    const int decision = cur_;
    const int join = new_block(stmt.line);
    const int body = new_block(stmt.line);
    edge(decision, body);
    edge(decision, join);
    cur_ = body;
    terminated_ = false;
    if (!stmt.children.empty() && stmt.children[0]) walk(*stmt.children[0]);
    if (!terminated_) edge(cur_, join);
    cur_ = join;
    terminated_ = false;
    if (implicit_barrier) {
      // Construct-end barrier: synchronizes, but is not an *explicit*
      // barrier for the unmatched-branch count.
      add_event({CfgEventKind::kBarrier, "", stmt.line, -1, false, false});
    }
  }

  void walk_worksharing(const Stmt& stmt) {
    const Directive& d = stmt.directive;
    if (!stmt.children.empty() && stmt.children[0]) {
      const Stmt& body = *stmt.children[0];
      if (d.kind == DirectiveKind::kFor && body.kind == StmtKind::kFor) {
        walk_for(body, /*worksharing=*/true);
      } else if (d.kind == DirectiveKind::kSections) {
        walk_sections(stmt);
      } else {
        walk(body);
      }
    }
    ensure_open(d.line);
    if (d.clauses.nowait) {
      cfg_->nowaits.push_back({d.line});
      add_event({CfgEventKind::kNowaitExit, "", d.line,
                 static_cast<int>(cfg_->nowaits.size()) - 1, false, false});
    } else {
      add_event({CfgEventKind::kBarrier, "", d.line, -1, false, false});
    }
  }

  void walk_sections(const Stmt& stmt) {
    ensure_open(stmt.line);
    const int fork = cur_;
    const int join = new_block(stmt.line);
    std::vector<const Stmt*> arms;
    if (!stmt.children.empty() && stmt.children[0]) {
      const Stmt& body = *stmt.children[0];
      if (body.kind == StmtKind::kBlock) {
        for (const StmtPtr& child : body.children) {
          if (child->kind == StmtKind::kPragma &&
              child->directive.kind == DirectiveKind::kSection) {
            if (!child->children.empty()) {
              arms.push_back(child->children.front().get());
            }
          } else if (child->kind != StmtKind::kEmpty) {
            arms.push_back(child.get());
          }
        }
      } else {
        arms.push_back(&body);
      }
    }
    for (const Stmt* arm : arms) {
      const int arm_block = new_block(arm->line);
      edge(fork, arm_block);
      cur_ = arm_block;
      terminated_ = false;
      walk(*arm);
      if (!terminated_) edge(cur_, join);
    }
    if (arms.empty()) edge(fork, join);
    cur_ = join;
    terminated_ = false;
  }

  void walk_pragma(const Stmt& stmt) {
    const Directive& d = stmt.directive;
    switch (d.kind) {
      case DirectiveKind::kBarrier:
        ensure_open(d.line);
        add_barrier(d.line);
        return;
      case DirectiveKind::kFlush:
        ensure_open(d.line);
        add_event({CfgEventKind::kSync, "", d.line, -1, false, false});
        return;
      case DirectiveKind::kCritical:
      case DirectiveKind::kAtomic: {
        ensure_open(d.line);
        add_event({CfgEventKind::kSync, "", d.line, -1, false, false});
        ++critical_depth_;
        if (!stmt.children.empty() && stmt.children[0]) {
          walk(*stmt.children[0]);
        }
        --critical_depth_;
        return;
      }
      case DirectiveKind::kSingle:
        walk_one_thread_body(stmt, /*implicit_barrier=*/!d.clauses.nowait);
        if (d.clauses.nowait) {
          // `single nowait` is a nowait construct for the dependence client
          // just like worksharing loops: its write may still be in flight.
          ensure_open(d.line);
          cfg_->nowaits.push_back({d.line});
          add_event({CfgEventKind::kNowaitExit, "", d.line,
                     static_cast<int>(cfg_->nowaits.size()) - 1, false,
                     false});
        }
        return;
      case DirectiveKind::kMaster:
        walk_one_thread_body(stmt, /*implicit_barrier=*/false);
        return;
      case DirectiveKind::kOrdered:
        // All threads execute, serialized: linear flow with a sync point.
        ensure_open(d.line);
        add_event({CfgEventKind::kSync, "", d.line, -1, false, false});
        if (!stmt.children.empty() && stmt.children[0]) {
          walk(*stmt.children[0]);
        }
        return;
      case DirectiveKind::kFor:
      case DirectiveKind::kSections:
        walk_worksharing(stmt);
        return;
      case DirectiveKind::kSection:
        if (!stmt.children.empty() && stmt.children[0]) {
          walk(*stmt.children[0]);
        }
        return;
      case DirectiveKind::kParallel:
      case DirectiveKind::kParallelFor:
      case DirectiveKind::kParallelSections:
        // A nested parallel construct inside this region: model its body as
        // straight-line code of the enclosing flow.
        if (!stmt.children.empty() && stmt.children[0]) {
          if (d.kind == DirectiveKind::kParallelFor &&
              stmt.children[0]->kind == StmtKind::kFor) {
            walk_for(*stmt.children[0], /*worksharing=*/true);
          } else {
            walk(*stmt.children[0]);
          }
        }
        return;
      case DirectiveKind::kThreadprivate:
        return;
    }
  }

  void walk(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kBlock:
        for (const StmtPtr& child : stmt.children) {
          if (child) walk(*child);
        }
        return;
      case StmtKind::kRaw:
        walk_raw(stmt);
        return;
      case StmtKind::kDecl:
        walk_decl(stmt);
        return;
      case StmtKind::kFor:
        walk_for(stmt, /*worksharing=*/false);
        return;
      case StmtKind::kIf:
        walk_if(stmt);
        return;
      case StmtKind::kWhile:
        walk_while(stmt);
        return;
      case StmtKind::kDoWhile:
        walk_do_while(stmt);
        return;
      case StmtKind::kSwitch:
        walk_switch(stmt);
        return;
      case StmtKind::kPragma:
        walk_pragma(stmt);
        return;
      case StmtKind::kHashLine:
      case StmtKind::kEmpty:
        return;
    }
  }

  Cfg* cfg_;
  const std::vector<Token>& tokens_;
  int cur_ = Cfg::kEntry;
  bool terminated_ = false;
  int critical_depth_ = 0;
  int explicit_barriers_ = 0;
  std::vector<LoopCtx> loops_;
  std::vector<int> break_targets_;
};

}  // namespace

Cfg build_cfg(const Stmt& body, const std::vector<Token>& tokens) {
  Cfg cfg;
  CfgBuilder builder(&cfg, tokens);
  builder.build(body);
  return cfg;
}

}  // namespace parade::translator

#include "translator/cfg.hpp"

#include <utility>

namespace parade::translator {

std::size_t Cfg::edge_count() const {
  std::size_t edges = 0;
  for (const CfgBlock& b : blocks) edges += b.n_succs;
  return edges;
}

bool Cfg::is_local(Sym sym) const {
  for (const Sym local : locals) {
    if (local == sym) return true;
  }
  return false;
}

void Cfg::set_edges(const std::vector<std::pair<int, int>>& edges) {
  for (CfgBlock& b : blocks) b.n_succs = b.n_preds = 0;
  for (const auto& [from, to] : edges) {
    ++blocks[static_cast<std::size_t>(from)].n_succs;
    ++blocks[static_cast<std::size_t>(to)].n_preds;
  }
  std::uint32_t at = 0;
  for (CfgBlock& b : blocks) {
    b.succs = at;
    at += b.n_succs;
    b.n_succs = 0;
  }
  for (CfgBlock& b : blocks) {
    b.preds = at;
    at += b.n_preds;
    b.n_preds = 0;
  }
  edge_list.resize(at);
  for (const auto& [from, to] : edges) {
    CfgBlock& f = blocks[static_cast<std::size_t>(from)];
    CfgBlock& t = blocks[static_cast<std::size_t>(to)];
    edge_list[f.succs + f.n_succs++] = to;
    edge_list[t.preds + t.n_preds++] = from;
  }
}

void Cfg::reachable(std::vector<char>* seen) {
  std::vector<int>& work = scratch.work;
  seen->assign(blocks.size(), 0);
  work.assign(1, kEntry);
  (*seen)[kEntry] = 1;
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    for (const int s : succs(static_cast<std::size_t>(b))) {
      if ((*seen)[static_cast<std::size_t>(s)] == 0) {
        (*seen)[static_cast<std::size_t>(s)] = 1;
        work.push_back(s);
      }
    }
  }
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
  CfgBuilder(Cfg* cfg, const TranslationUnit& unit)
      : cfg_(cfg), unit_(unit), tokens_(unit.tokens) {
    cfg_->blocks.clear();
    cfg_->loops.clear();
    cfg_->branches.clear();
    cfg_->nowaits.clear();
    cfg_->locals.clear();
    CfgScratch& scratch = cfg_->scratch;
    scratch.events.clear();
    scratch.edges.clear();
    scratch.loops.clear();
    scratch.break_targets.clear();
    scratch.switch_decisions.clear();
    scratch.arms.clear();
    cfg_->blocks.resize(2);  // entry, exit
  }

  void build(const Stmt& body) {
    cur_ = Cfg::kEntry;
    walk(body);
    if (!terminated_) edge(cur_, Cfg::kExit);
    cfg_->set_edges(cfg_->scratch.edges);
    group_events();
  }

 private:

  /// Moves the staged events into Cfg::event_list grouped by block, each
  /// block's in build order.
  void group_events() {
    std::vector<CfgBlock>& blocks = cfg_->blocks;
    for (CfgBlock& b : blocks) b.n_events = 0;
    for (const auto& [block, ev] : cfg_->scratch.events) {
      (void)ev;
      ++blocks[static_cast<std::size_t>(block)].n_events;
    }
    std::uint32_t at = 0;
    for (CfgBlock& b : blocks) {
      b.events = at;
      at += b.n_events;
      b.n_events = 0;
    }
    cfg_->event_list.resize(at);
    for (const auto& [block, ev] : cfg_->scratch.events) {
      CfgBlock& b = blocks[static_cast<std::size_t>(block)];
      cfg_->event_list[b.events + b.n_events++] = ev;
    }
  }

  int new_block(int line) {
    cfg_->blocks.emplace_back();
    CfgBlock& b = cfg_->blocks.back();
    b.line = line;
    b.loop = loops_.empty() ? -1 : loops_.back().id;
    return static_cast<int>(cfg_->blocks.size()) - 1;
  }

  void edge(int from, int to) { cfg_->scratch.edges.emplace_back(from, to); }

  /// Re-opens the flow after a terminator: statements following a `return`
  /// land in a fresh block with no predecessors (statically unreachable).
  void ensure_open(int line) {
    if (!terminated_) return;
    cur_ = new_block(line);
    terminated_ = false;
  }

  void add_event(CfgEventKind kind, Sym sym, int line, int id = -1,
                 bool loop_cond = false) {
    cfg_->scratch.events.emplace_back(
        cur_, CfgEvent{kind, sym, line, id, critical_depth_ > 0, loop_cond});
  }

  void add_barrier(int line) {
    add_event(CfgEventKind::kBarrier, kNoSym, line);
    ++explicit_barriers_;
  }

  void add_text_events(const Expr& expr, int line, bool loop_cond = false) {
    const AccessScan acc = unit_.access(expr);
    for (const Sym name : acc.reads) {
      add_event(CfgEventKind::kRead, name, line, -1, loop_cond);
    }
    for (const AccessWrite& w : acc.writes) {
      if (w.deref) continue;  // store through a pointer: target unknown
      add_event(CfgEventKind::kWrite, w.sym, line);
    }
  }

  void walk_decl(const Stmt& stmt) {
    ensure_open(stmt.line);
    for (const Declarator& d : unit_.declarators_of(*stmt.decl)) {
      for (const Expr& dim : unit_.dims_of(d)) add_text_events(dim, stmt.line);
      add_text_events(d.init, stmt.line);
      if (d.is_function) continue;
      add_local(d.name);
      add_event(CfgEventKind::kDecl, d.name, stmt.line);
      if (!d.init.empty()) add_event(CfgEventKind::kWrite, d.name, stmt.line);
    }
  }

  void add_local(Sym sym) {
    if (!cfg_->is_local(sym)) cfg_->locals.push_back(sym);
  }

  void walk_raw(const Stmt& stmt) {
    ensure_open(stmt.line);
    // The first token tells jumps ("return", "break", ...) apart.
    const TokenSpan span = stmt.expr.span;
    static const Token kNone;
    const Token& kw = span.empty() ? kNone : tokens_[span.begin];
    if (kw.is("return")) {
      add_text_events(stmt.expr, stmt.line);
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
      add_text_events(stmt.expr, stmt.line);
      edge(cur_, Cfg::kExit);
      terminated_ = true;
      return;
    }
    add_text_events(stmt.expr, stmt.line);
  }

  void walk_if(const Stmt& stmt) {
    ensure_open(stmt.line);
    add_text_events(stmt.expr, stmt.line);
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
    if (const Stmt* body = stmt.first_child) walk(*body);
    branch.then_barriers = explicit_barriers_ - barriers_before;
    if (!terminated_) edge(cur_, join);

    const Stmt* else_branch = stmt.has_else ? stmt.child(1) : nullptr;
    if (else_branch != nullptr) {
      const int else_block = new_block(else_branch->line);
      edge(decision, else_block);
      cur_ = else_block;
      terminated_ = false;
      barriers_before = explicit_barriers_;
      walk(*else_branch);
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
    add_text_events(stmt.expr, stmt.line, /*loop_cond=*/true);
    edge(head, exit_block);
    const int body = new_block(stmt.line);
    edge(head, body);
    cur_ = body;
    if (const Stmt* body = stmt.first_child) walk(*body);
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
    if (const Stmt* body = stmt.first_child) walk(*body);
    if (!terminated_) edge(cur_, cond_block);
    cur_ = cond_block;
    terminated_ = false;
    add_text_events(stmt.expr, stmt.line, /*loop_cond=*/true);
    edge(cond_block, body);
    edge(cond_block, exit_block);

    break_targets_.pop_back();
    loops_.pop_back();
    cur_ = exit_block;
    terminated_ = false;
  }

  void walk_for(const Stmt& stmt, bool worksharing) {
    ensure_open(stmt.line);
    const ForHeader& h = *stmt.for_header;
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

    if (h.canonical && h.declares_var()) add_local(h.loop_var);
    cur_ = head;
    terminated_ = false;
    add_text_events(h.cond_text, stmt.line, /*loop_cond=*/true);
    edge(head, exit_block);
    const int body = new_block(stmt.line);
    edge(head, body);
    cur_ = body;
    if (const Stmt* body = stmt.first_child) walk(*body);
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
    add_text_events(stmt.expr, stmt.line);
    const int decision = cur_;
    const int join = new_block(stmt.line);
    const int body = new_block(stmt.line);
    // Approximation: control may enter the body (some case matches) or skip
    // it entirely (no case, no default); `break` inside targets the join.
    edge(decision, body);
    edge(decision, join);
    break_targets_.push_back(join);
    switch_decisions_.push_back(decision);
    cur_ = body;
    terminated_ = false;
    if (const Stmt* b = stmt.first_child) walk(*b);
    if (!terminated_) edge(cur_, join);
    switch_decisions_.pop_back();
    break_targets_.pop_back();
    cur_ = join;
    terminated_ = false;
  }

  /// A label starts a block that control reaches by falling through and,
  /// for a case label, from the switch's decision; a goto target is
  /// entered from the region's entry, since gotos are not followed.
  void walk_label(const Stmt& stmt) {
    const int label = new_block(stmt.line);
    if (!terminated_) edge(cur_, label);
    const Token& first = tokens_[stmt.expr.span.begin];
    const bool is_case = first.is_kw("case") || first.is_kw("default");
    edge(is_case && !switch_decisions_.empty() ? switch_decisions_.back()
                                               : Cfg::kEntry,
         label);
    cur_ = label;
    terminated_ = false;
    if (const Stmt* body = stmt.first_child) walk(*body);
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
    if (const Stmt* body = stmt.first_child) walk(*body);
    if (!terminated_) edge(cur_, join);
    cur_ = join;
    terminated_ = false;
    if (implicit_barrier) {
      // Construct-end barrier: synchronizes, but is not an *explicit*
      // barrier for the unmatched-branch count.
      add_event(CfgEventKind::kBarrier, kNoSym, stmt.line);
    }
  }

  void walk_worksharing(const Stmt& stmt) {
    const Directive& d = *stmt.directive;
    if (stmt.first_child != nullptr) {
      const Stmt& body = *stmt.first_child;
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
      add_event(CfgEventKind::kNowaitExit, kNoSym, d.line,
                static_cast<int>(cfg_->nowaits.size()) - 1);
    } else {
      add_event(CfgEventKind::kBarrier, kNoSym, d.line);
    }
  }

  void walk_sections(const Stmt& stmt) {
    ensure_open(stmt.line);
    const int fork = cur_;
    const int join = new_block(stmt.line);
    // Nested sections push above this construct's arms.
    const std::size_t first_arm = arm_stack_.size();
    if (stmt.first_child != nullptr) {
      const Stmt& body = *stmt.first_child;
      if (body.kind == StmtKind::kBlock) {
        for (const Stmt& child : body.children()) {
          if (child.kind == StmtKind::kPragma &&
              child.directive->kind == DirectiveKind::kSection) {
            if (child.first_child != nullptr) {
              arm_stack_.push_back(child.first_child);
            }
          } else if (child.kind != StmtKind::kEmpty) {
            arm_stack_.push_back(&child);
          }
        }
      } else {
        arm_stack_.push_back(&body);
      }
    }
    const std::size_t arm_count = arm_stack_.size() - first_arm;
    for (std::size_t a = 0; a < arm_count; ++a) {
      const Stmt* arm = arm_stack_[first_arm + a];
      const int arm_block = new_block(arm->line);
      edge(fork, arm_block);
      cur_ = arm_block;
      terminated_ = false;
      walk(*arm);
      if (!terminated_) edge(cur_, join);
    }
    arm_stack_.resize(first_arm);
    if (arm_count == 0) edge(fork, join);
    cur_ = join;
    terminated_ = false;
  }

  void walk_pragma(const Stmt& stmt) {
    const Directive& d = *stmt.directive;
    switch (d.kind) {
      case DirectiveKind::kBarrier:
        ensure_open(d.line);
        add_barrier(d.line);
        return;
      case DirectiveKind::kFlush:
        ensure_open(d.line);
        add_event(CfgEventKind::kSync, kNoSym, d.line);
        return;
      case DirectiveKind::kCritical:
      case DirectiveKind::kAtomic: {
        ensure_open(d.line);
        add_event(CfgEventKind::kSync, kNoSym, d.line);
        ++critical_depth_;
        if (const Stmt* body = stmt.first_child) walk(*body);
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
          add_event(CfgEventKind::kNowaitExit, kNoSym, d.line,
                    static_cast<int>(cfg_->nowaits.size()) - 1);
        }
        return;
      case DirectiveKind::kMaster:
        walk_one_thread_body(stmt, /*implicit_barrier=*/false);
        return;
      case DirectiveKind::kOrdered:
        // All threads execute, serialized: linear flow with a sync point.
        ensure_open(d.line);
        add_event(CfgEventKind::kSync, kNoSym, d.line);
        if (const Stmt* body = stmt.first_child) walk(*body);
        return;
      case DirectiveKind::kFor:
      case DirectiveKind::kSections:
        walk_worksharing(stmt);
        return;
      case DirectiveKind::kSection:
        if (const Stmt* body = stmt.first_child) walk(*body);
        return;
      case DirectiveKind::kParallel:
      case DirectiveKind::kParallelFor:
      case DirectiveKind::kParallelSections:
        // A nested parallel construct inside this region: model its body as
        // straight-line code of the enclosing flow.
        if (const Stmt* body = stmt.first_child) {
          if (d.kind == DirectiveKind::kParallelFor &&
              body->kind == StmtKind::kFor) {
            walk_for(*body, /*worksharing=*/true);
          } else {
            walk(*body);
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
        for (const Stmt& child : stmt.children()) walk(child);
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
      case StmtKind::kLabel:
        walk_label(stmt);
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
  const TranslationUnit& unit_;
  const std::vector<Token>& tokens_;
  int cur_ = Cfg::kEntry;
  bool terminated_ = false;
  int critical_depth_ = 0;
  int explicit_barriers_ = 0;
  std::vector<CfgScratch::Loop>& loops_ = cfg_->scratch.loops;
  std::vector<int>& break_targets_ = cfg_->scratch.break_targets;
  std::vector<int>& switch_decisions_ = cfg_->scratch.switch_decisions;
  std::vector<const Stmt*>& arm_stack_ = cfg_->scratch.arms;
};

}  // namespace

void build_cfg(const Stmt& body, const TranslationUnit& unit, Cfg* cfg) {
  CfgBuilder(cfg, unit).build(body);
}

}  // namespace parade::translator

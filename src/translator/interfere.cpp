#include "translator/interfere.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "translator/parser.hpp"
#include "translator/scopes.hpp"

namespace parade::translator {

const char* to_string(SharingPattern pattern) {
  switch (pattern) {
    case SharingPattern::kReadMostly: return "read_mostly";
    case SharingPattern::kProducerConsumer: return "producer_consumer";
    case SharingPattern::kMigratory: return "migratory";
    case SharingPattern::kPingPong: return "ping_pong";
  }
  return "unknown";
}

namespace {

// Internal lock names that cannot collide with user critical(name) labels.
const char* const kDefaultCriticalLock = "\x01critical";
const char* const kOrderedLock = "\x01ordered";

/// The tokens of `span` run together, as the rendering with its blanks
/// removed would read.
std::string joined(const TranslationUnit& unit, TokenSpan span) {
  std::string text;
  for (std::size_t t = span.begin; t < span.end; ++t) {
    text += unit.tokens[t].text;
  }
  return text;
}

/// `text` as an integer literal ("1000000", "0x40").
bool parse_literal(const std::string& text, long long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

/// Per symbol id, the unit's file-scope entry in analysis.globals (null
/// for every other name).
std::vector<const VarClass*> globals_by_sym(const TranslationUnit& unit,
                                            const Analysis& analysis) {
  std::vector<const VarClass*> out(unit.symbols.size(), nullptr);
  for (const auto& [name, vc] : analysis.globals) {
    const Sym sym = unit.symbols.find(name);
    if (sym != kNoSym) out[sym] = &vc;
  }
  return out;
}

/// File-scope `name = integer-literal` initializers of a unit (e.g.
/// `static long num_steps = 1000000;`), which double as symbolic loop bounds
/// for static trip counts.
class LiteralBounds {
 public:
  explicit LiteralBounds(const TranslationUnit& unit)
      : unit_(unit), literal_(unit.symbols.size()) {
    for (const TopItem& item : unit.items) {
      if (item.kind != TopItem::Kind::kDecl) continue;
      for (const Declarator& d : unit.declarators_of(*item.stmt->decl)) {
        long long v = 0;
        if (!d.is_function && d.n_dims == 0 && !d.init.empty() &&
            parse_literal(joined(unit, d.init.span), &v)) {
          literal_[d.name] = v;
        }
      }
    }
  }

  /// Trip count of a canonical loop whose bounds resolve; 0 = unknown.
  long long trip_count(const ForHeader& h) const {
    if (!h.canonical) return 0;
    long long lo = 0;
    long long hi = 0;
    long long step = 1;
    if (!resolve(h.lower, &lo) || !resolve(h.upper, &hi) ||
        (!h.unit_step && !resolve(h.step, &step)) || step == 0) {
      return 0;
    }
    long long span = h.increasing ? hi - lo : lo - hi;
    if (h.inclusive) ++span;
    if (span <= 0) return 0;
    const long long abs_step = step < 0 ? -step : step;
    return (span + abs_step - 1) / abs_step;
  }

 private:
  /// `e` as an integer literal or as the name of a literal-initialized
  /// file-scope symbol; false otherwise.
  bool resolve(const Expr& e, long long* out) const {
    const std::string text = joined(unit_, e.span);
    if (parse_literal(text, out)) return true;
    const Sym sym = unit_.symbols.find(text);
    if (sym == kNoSym || !literal_[sym]) return false;
    *out = *literal_[sym];
    return true;
  }

  const TranslationUnit& unit_;
  std::vector<std::optional<long long>> literal_;  // per symbol id
};

/// Walks the unit in program order building the region-sequence graph:
/// phase/step counters advance at the barrier points codegen actually emits
/// (global barriers bump both — they bump the DSM epoch at runtime — while
/// node-local order points such as a non-nowait `single` bump only the
/// step, which is the MHP granule).
class SeqWalker {
 public:
  SeqWalker(const TranslationUnit& unit, const Analysis& analysis)
      : unit_(unit),
        bounds_(unit),
        global_of_(globals_by_sym(unit, analysis)) {
    shadowed_.reset(unit.symbols.size());
  }

  RegionSequence run() {
    for (const TopItem& item : unit_.items) {
      if (item.kind != TopItem::Kind::kFunction) continue;
      shadowed_.push_scope();
      if (item.function.body) visit(*item.function.body);
      shadowed_.pop_scope();
    }
    seq_.phase_count = phase_ + 1;
    return std::move(seq_);
  }

 private:
  struct LoopCtx {
    Sym var = kNoSym;
    long long trips = 0;  // 0 = statically unknown
    bool worksharing = false;
  };

  /// Product of enclosing known loop trips (unknown loops count as 1: the
  /// estimate is a lower bound, absorbed by the cost-model tolerance).
  long long trip_multiplier() const {
    long long mult = 1;
    for (const LoopCtx& l : loops_) {
      if (l.trips > 0) mult *= l.trips;
    }
    return mult;
  }

  void shadow(Sym name) { shadowed_.declare(name, 1); }

  /// The id of lock `name` in seq_.lock_names, added when new.
  int lock_id(const std::string& name) {
    for (std::size_t i = 0; i < seq_.lock_names.size(); ++i) {
      if (seq_.lock_names[i] == name) return static_cast<int>(i);
    }
    seq_.lock_names.push_back(name);
    return static_cast<int>(seq_.lock_names.size()) - 1;
  }

  void bump_phase() {
    ++phase_;
    ++step_;
  }

  int open_construct(const char* kind, int line, bool nowait, int sync_line) {
    SeqConstruct c;
    c.id = static_cast<int>(seq_.constructs.size());
    c.line = line;
    c.kind = kind;
    c.phase = phase_;
    c.step = step_;
    c.parallel = parallel_depth_ > 0;
    c.nowait = nowait;
    c.per_thread = per_thread_;
    c.trips = trip_multiplier();
    c.sync_line = sync_line;
    seq_.constructs.push_back(c);
    return c.id;
  }

  void record_accesses(const Expr& expr, int line) {
    const AccessScan acc = unit_.access(expr);
    auto record = [&](Sym name, bool write) {
      if (shadowed_.lookup(name) != nullptr) return;
      if (global_of_[name] == nullptr) return;
      SeqAccess a;
      a.symbol = name;
      a.write = write;
      a.line = line;
      a.phase = phase_;
      a.step = step_;
      a.construct_id = construct_;
      a.trips = trip_multiplier();
      a.parallel = parallel_depth_ > 0;
      a.guarded = guard_depth_ > 0 || !lock_stack_.empty();
      a.in_critical = !lock_stack_.empty();
      a.serial_guard = serial_guards_.empty() ? -1 : serial_guards_.back();
      a.master_guard = master_depth_ > 0;
      a.per_thread = per_thread_;
      a.locks = lock_stack_;
      std::sort(a.locks.begin(), a.locks.end());
      if (write) {
        // Partitioned: the subscript runs over a worksharing loop variable,
        // so team members write disjoint affine slices.
        for (const LoopCtx& l : loops_) {
          if (l.worksharing && acc.subscripted_by(name, l.var)) {
            a.partitioned = true;
            break;
          }
        }
      }
      seq_.accesses.push_back(std::move(a));
    };
    for (const Sym r : acc.reads) record(r, /*write=*/false);
    for (const AccessWrite& w : acc.writes) {
      if (!w.deref) record(w.sym, /*write=*/true);
    }
  }

  void visit_children(const Stmt& stmt) {
    for (const Stmt& child : stmt.children()) visit(child);
  }

  void visit_worksharing_for(const Directive& d, const Stmt& for_stmt) {
    const ForHeader& h = *for_stmt.for_header;
    const int id = open_construct("for", d.line, d.clauses.nowait, -1);
    seq_.constructs[id].trips =
        trip_multiplier() * std::max(1LL, bounds_.trip_count(h));
    shadowed_.push_scope();
    shadow_clause_vars(d.clauses);
    if (h.canonical) shadow(h.loop_var);
    record_accesses(h.init_text, for_stmt.line);
    record_accesses(h.cond_text, for_stmt.line);
    record_accesses(h.incr_text, for_stmt.line);
    loops_.push_back(LoopCtx{h.canonical ? h.loop_var : kNoSym,
                             bounds_.trip_count(h), /*worksharing=*/true});
    const int saved_construct = construct_;
    const bool saved_per_thread = per_thread_;
    construct_ = id;
    per_thread_ = false;  // worksharing splits iterations across the team
    visit_children(for_stmt);
    per_thread_ = saved_per_thread;
    construct_ = saved_construct;
    loops_.pop_back();
    shadowed_.pop_scope();
    if (!d.clauses.nowait) bump_phase();  // runtime parallel_for barrier()
  }

  void shadow_clause_vars(const Clauses& c) {
    for (const ClauseVar& v : c.privates) shadow(v.sym);
    for (const ClauseVar& v : c.firstprivate) shadow(v.sym);
    for (const ClauseVar& v : c.lastprivate) shadow(v.sym);
    for (const auto& [op, v] : c.reductions) {
      (void)op;
      shadow(v.sym);  // merged by collectives, no page traffic
    }
  }

  void visit_pragma(const Stmt& stmt) {
    const Directive& d = *stmt.directive;
    const Stmt* body = stmt.first_child;
    switch (d.kind) {
      case DirectiveKind::kParallel: {
        const int id = open_construct("parallel", d.line, false, -1);
        shadowed_.push_scope();
        shadow_clause_vars(d.clauses);
        const int saved_construct = construct_;
        construct_ = id;
        ++parallel_depth_;
        per_thread_ = true;
        if (body) visit(*body);
        per_thread_ = false;
        --parallel_depth_;
        construct_ = saved_construct;
        shadowed_.pop_scope();
        bump_phase();  // Team::run_region ends with a global barrier
        return;
      }
      case DirectiveKind::kParallelFor: {
        shadowed_.push_scope();
        shadow_clause_vars(d.clauses);
        ++parallel_depth_;
        if (body != nullptr && body->kind == StmtKind::kFor) {
          visit_worksharing_for(d, *body);
        } else if (body != nullptr) {
          visit(*body);
        }
        --parallel_depth_;
        shadowed_.pop_scope();
        bump_phase();  // region-end barrier on top of the loop's
        return;
      }
      case DirectiveKind::kParallelSections:
      case DirectiveKind::kSections: {
        const bool combined = d.kind == DirectiveKind::kParallelSections;
        const int id = open_construct("sections", d.line,
                                      d.clauses.nowait && !combined, -1);
        shadowed_.push_scope();
        shadow_clause_vars(d.clauses);
        const int saved_construct = construct_;
        const bool saved_per_thread = per_thread_;
        construct_ = id;
        if (combined) ++parallel_depth_;
        per_thread_ = false;  // each section body runs exactly once
        if (body) visit_children(*body);
        per_thread_ = saved_per_thread;
        if (combined) --parallel_depth_;
        construct_ = saved_construct;
        shadowed_.pop_scope();
        if (combined) {
          bump_phase();  // sections' parallel_for barrier
          bump_phase();  // region-end barrier
        } else if (!d.clauses.nowait) {
          bump_phase();
        }
        return;
      }
      case DirectiveKind::kFor:
        if (body != nullptr && body->kind == StmtKind::kFor) {
          visit_worksharing_for(d, *body);
        } else if (body != nullptr) {
          visit(*body);
        }
        return;
      case DirectiveKind::kSingle: {
        const int id = open_construct("single", d.line, d.clauses.nowait, -1);
        shadowed_.push_scope();
        shadow_clause_vars(d.clauses);
        const int saved_construct = construct_;
        const bool saved_per_thread = per_thread_;
        construct_ = id;
        per_thread_ = false;
        serial_guards_.push_back(id);
        ++guard_depth_;
        if (body) visit(*body);
        --guard_depth_;
        serial_guards_.pop_back();
        per_thread_ = saved_per_thread;
        construct_ = saved_construct;
        shadowed_.pop_scope();
        // Non-nowait single ends in a *node-local* barrier: an intra-node
        // order point (step), but no DSM epoch bump (phase unchanged).
        if (!d.clauses.nowait) ++step_;
        return;
      }
      case DirectiveKind::kMaster: {
        const int id = open_construct("master", d.line, false, -1);
        const int saved_construct = construct_;
        const bool saved_per_thread = per_thread_;
        construct_ = id;
        per_thread_ = false;
        serial_guards_.push_back(id);
        ++guard_depth_;
        ++master_depth_;
        if (body) visit(*body);
        --master_depth_;
        --guard_depth_;
        serial_guards_.pop_back();
        per_thread_ = saved_per_thread;
        construct_ = saved_construct;
        return;
      }
      case DirectiveKind::kCritical: {
        const int id = open_construct("critical", d.line, false, d.line);
        const int saved_construct = construct_;
        construct_ = id;
        lock_stack_.push_back(lock_id(d.clauses.critical_name.empty()
                                          ? kDefaultCriticalLock
                                          : d.clauses.critical_name));
        if (body) visit(*body);
        lock_stack_.pop_back();
        construct_ = saved_construct;
        return;
      }
      case DirectiveKind::kAtomic: {
        const int id = open_construct("atomic", d.line, false, d.line);
        const int saved_construct = construct_;
        construct_ = id;
        // An atomic serializes against other atomics on the same location
        // only; model it as a per-variable lock.
        std::string target;
        if (body != nullptr && body->kind == StmtKind::kRaw) {
          if (auto shape = match_scalar_update(unit_.tokens, body->expr.span)) {
            target = unit_.tokens[shape->var].text;
          }
        }
        lock_stack_.push_back(
            lock_id(std::string("\x01") + "atomic:" + target));
        if (body) visit(*body);
        lock_stack_.pop_back();
        construct_ = saved_construct;
        return;
      }
      case DirectiveKind::kOrdered: {
        // Ordered bodies execute in iteration order: mutually serialized.
        ++guard_depth_;
        lock_stack_.push_back(lock_id(kOrderedLock));
        if (body) visit(*body);
        lock_stack_.pop_back();
        --guard_depth_;
        return;
      }
      case DirectiveKind::kBarrier:
        bump_phase();
        return;
      case DirectiveKind::kFlush:
        bump_phase();  // codegen approximates flush by a global barrier
        return;
      case DirectiveKind::kSection:
      case DirectiveKind::kThreadprivate:
        if (body) visit(*body);
        return;
    }
  }

  void visit(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kRaw:
        record_accesses(stmt.expr, stmt.line);
        return;
      case StmtKind::kDecl:
        for (const Declarator& d : unit_.declarators_of(*stmt.decl)) {
          record_accesses(d.init, stmt.line);
          shadow(d.name);
        }
        return;
      case StmtKind::kBlock:
        shadowed_.push_scope();
        visit_children(stmt);
        shadowed_.pop_scope();
        return;
      case StmtKind::kFor: {
        const ForHeader& h = *stmt.for_header;
        record_accesses(h.init_text, stmt.line);
        record_accesses(h.cond_text, stmt.line);
        record_accesses(h.incr_text, stmt.line);
        shadowed_.push_scope();
        if (h.canonical && h.declares_var()) shadow(h.loop_var);
        loops_.push_back(LoopCtx{h.canonical ? h.loop_var : kNoSym,
                                 bounds_.trip_count(h),
                                 /*worksharing=*/false});
        visit_children(stmt);
        loops_.pop_back();
        shadowed_.pop_scope();
        return;
      }
      case StmtKind::kWhile:
      case StmtKind::kDoWhile:
        record_accesses(stmt.expr, stmt.line);
        loops_.push_back(LoopCtx{kNoSym, 0, false});
        visit_children(stmt);
        loops_.pop_back();
        return;
      case StmtKind::kIf:
      case StmtKind::kSwitch:
        record_accesses(stmt.expr, stmt.line);
        visit_children(stmt);
        return;
      case StmtKind::kLabel:
        visit_children(stmt);
        return;
      case StmtKind::kPragma:
        visit_pragma(stmt);
        return;
      case StmtKind::kHashLine:
      case StmtKind::kEmpty:
        return;
    }
  }

  const TranslationUnit& unit_;
  LiteralBounds bounds_;
  const std::vector<const VarClass*> global_of_;  // per symbol id
  RegionSequence seq_;
  int phase_ = 0;
  int step_ = 0;
  int parallel_depth_ = 0;
  int guard_depth_ = 0;   // single/master/ordered nesting
  int master_depth_ = 0;
  int construct_ = -1;
  bool per_thread_ = false;
  std::vector<LoopCtx> loops_;
  std::vector<int> lock_stack_;  // ids into seq_.lock_names
  std::vector<int> serial_guards_;
  ScopedTable<char> shadowed_;  // names bound by non-global declarations
};

bool dsm_placed(const VarClass* global) {
  return global != nullptr && (global->placement == Placement::kDsmScalar ||
                               global->placement == Placement::kDsmArray);
}

/// True when the access's enclosing sync site ended up on the collective
/// path: the team_update collective propagates the value itself, no DSM
/// page traffic.
bool collective_managed(const Analysis& analysis, const RegionSequence& seq,
                        const SeqAccess& a) {
  if (a.construct_id < 0) return false;
  const SeqConstruct& c = seq.constructs[static_cast<std::size_t>(
      a.construct_id)];
  if (c.sync_line < 0) return false;
  auto site = analysis.sync_sites.find(c.sync_line);
  return site != analysis.sync_sites.end() && site->second.collective;
}

/// Per-symbol, per-phase interference timeline entry.
struct PhaseAcc {
  std::size_t reads = 0;   // syntactic occurrences (PR-8 counting discipline)
  std::size_t writes = 0;
  std::vector<const SeqAccess*> write_accesses;
  std::vector<const SeqAccess*> read_accesses;
  bool ping_pong = false;
  SharingPattern pattern = SharingPattern::kReadMostly;
};

/// symbol name -> phase -> accounting, in name order. Only DSM-placed
/// symbols are tracked: the replicated ones synchronize via collectives and
/// never page-fault.
using Timeline = std::map<std::string_view, std::map<int, PhaseAcc>>;

Timeline build_timeline(const TranslationUnit& unit, const RegionSequence& seq,
                        const Analysis& analysis) {
  const std::vector<const VarClass*> global_of = globals_by_sym(unit, analysis);
  Timeline timeline;
  for (const SeqAccess& a : seq.accesses) {
    if (!dsm_placed(global_of[a.symbol])) continue;
    if (collective_managed(analysis, seq, a)) continue;
    PhaseAcc& acc = timeline[unit.name(a.symbol)][a.phase];
    if (a.write) {
      acc.writes += 1;
      acc.write_accesses.push_back(&a);
    } else {
      acc.reads += 1;
      acc.read_accesses.push_back(&a);
    }
  }

  for (auto& [symbol, phases] : timeline) {
    const bool scalar = analysis.globals.at(std::string(symbol)).placement ==
                        Placement::kDsmScalar;
    // Phases that write the symbol, in order, for cross-phase flow checks.
    std::vector<int> writing_phases;
    for (const auto& [phase, acc] : phases) {
      if (acc.writes > 0) writing_phases.push_back(phase);
    }
    for (auto& [phase, acc] : phases) {
      if (acc.writes == 0) {
        acc.pattern = SharingPattern::kReadMostly;
        continue;
      }
      // Ping-pong: two writers may overlap, or the whole team funnels
      // serialized writes through one shared location (lock convoys move
      // the page node-to-node even though no data race exists).
      for (std::size_t i = 0;
           !acc.ping_pong && i < acc.write_accesses.size(); ++i) {
        for (std::size_t j = i + 1; j < acc.write_accesses.size(); ++j) {
          if (may_happen_in_parallel(*acc.write_accesses[i],
                                     *acc.write_accesses[j])) {
            acc.ping_pong = true;
            break;
          }
        }
      }
      if (!acc.ping_pong) {
        for (const SeqAccess* w : acc.write_accesses) {
          if (w->parallel && w->serial_guard < 0 && !w->master_guard &&
              (scalar || !w->partitioned)) {
            acc.ping_pong = true;
            break;
          }
        }
      }
      if (acc.ping_pong) {
        acc.pattern = SharingPattern::kPingPong;
        continue;
      }
      // Sole effective writer. Written in other phases too -> the writer
      // (and thus the ideal home) moves across phases: migratory. A single
      // writing phase feeding later readers -> producer/consumer.
      if (writing_phases.size() > 1) {
        acc.pattern = SharingPattern::kMigratory;
        continue;
      }
      bool later_reader = false;
      for (const auto& [other_phase, other] : phases) {
        if (other_phase > phase && other.reads > 0) {
          later_reader = true;
          break;
        }
      }
      acc.pattern = later_reader ? SharingPattern::kProducerConsumer
                                 : SharingPattern::kMigratory;
    }
  }
  return timeline;
}

}  // namespace

RegionSequence build_region_sequence(const TranslationUnit& unit,
                                     const Analysis& analysis) {
  SeqWalker walker(unit, analysis);
  return walker.run();
}

bool may_happen_in_parallel(const SeqAccess& a, const SeqAccess& b) {
  if (a.step != b.step) return false;        // ordered by a barrier
  if (!a.parallel || !b.parallel) return false;
  if (a.master_guard && b.master_guard) return false;  // same global thread
  if (a.serial_guard >= 0 && a.serial_guard == b.serial_guard) {
    return false;  // same single/master instance executes once
  }
  for (const int lock : a.locks) {
    if (std::find(b.locks.begin(), b.locks.end(), lock) != b.locks.end()) {
      return false;  // common lock serializes the pair
    }
  }
  return true;
}

void run_interference(const TranslationUnit& unit, Analysis* analysis) {
  const RegionSequence seq = build_region_sequence(unit, *analysis);
  const std::vector<const VarClass*> global_of =
      globals_by_sym(unit, *analysis);

  // --- race.cross_region -------------------------------------------------
  // Two guarded writes that may still overlap because their guards do not
  // compose: different critical names, atomic vs critical, or a nowait
  // single racing a critical. Unguarded writes are already race.shared_write
  // (PR 3); this diagnostic is additive, like the PR-8 flow-only ones.
  std::set<std::pair<Sym, std::pair<int, int>>> reported_races;
  for (std::size_t i = 0; i < seq.accesses.size(); ++i) {
    const SeqAccess& a = seq.accesses[i];
    if (!a.write || !a.guarded) continue;
    const VarClass* g = global_of[a.symbol];
    if (g == nullptr || g->placement == Placement::kThreadprivate) continue;
    for (std::size_t j = i + 1; j < seq.accesses.size(); ++j) {
      const SeqAccess& b = seq.accesses[j];
      // Steps never decrease in program order, and accesses in different
      // steps never overlap.
      if (b.step != a.step) break;
      if (!b.write || !b.guarded || b.symbol != a.symbol) continue;
      if (a.construct_id == b.construct_id) continue;
      if (!may_happen_in_parallel(a, b)) continue;
      const auto key = std::make_pair(
          a.symbol, std::make_pair(std::min(a.line, b.line),
                                   std::max(a.line, b.line)));
      if (!reported_races.insert(key).second) continue;
      Diagnostic d;
      d.code = kDiagRaceCrossRegion;
      d.severity = Severity::kWarning;
      d.line = std::max(a.line, b.line);
      d.var = unit.name(a.symbol);
      d.message = "'" + d.var + "' is written at lines " +
                  std::to_string(std::min(a.line, b.line)) + " and " +
                  std::to_string(std::max(a.line, b.line)) +
                  " under synchronization that does not compose (the "
                  "guards share no lock), and no barrier orders the two "
                  "constructs";
      resolve_diag_columns(unit, &d);
      analysis->diagnostics.push_back(std::move(d));
    }
  }

  // --- nowait.cross_region_read ------------------------------------------
  // A nowait construct's writes are only published at the next *global*
  // barrier. PR 3/8 catch dependent reads inside the same block; this
  // extends the check across construct boundaries: any later read in the
  // same phase may observe the pre-write value on another node. Reads under
  // a lock are exempt (the HLRC acquire applies pending write notices), and
  // sites already carrying nowait.dependent_read are not re-reported.
  std::set<std::pair<Sym, int>> already_flagged;
  for (const Diagnostic& d : analysis->diagnostics) {
    if (d.code == kDiagNowaitDependentRead) {
      already_flagged.emplace(unit.symbols.find(d.var), d.line);
    }
  }
  std::set<std::pair<Sym, int>> reported_nowait;
  for (std::size_t i = 0; i < seq.accesses.size(); ++i) {
    const SeqAccess& w = seq.accesses[i];
    if (!w.write || w.construct_id < 0) continue;
    const SeqConstruct& wc =
        seq.constructs[static_cast<std::size_t>(w.construct_id)];
    if (!wc.nowait) continue;
    if (global_of[w.symbol] == nullptr) continue;
    for (std::size_t j = i + 1; j < seq.accesses.size(); ++j) {
      const SeqAccess& r = seq.accesses[j];
      if (r.write || r.symbol != w.symbol) continue;
      if (r.phase != w.phase) break;  // the barrier published the write
      if (r.construct_id == w.construct_id) continue;
      if (r.in_critical) continue;
      if (already_flagged.count({r.symbol, r.line}) > 0) continue;
      if (!reported_nowait.insert({r.symbol, r.line}).second) continue;
      Diagnostic d;
      d.code = kDiagNowaitCrossRegionRead;
      d.severity = Severity::kWarning;
      d.line = r.line;
      d.var = unit.name(r.symbol);
      d.message = "'" + d.var + "' is read here but written at line " +
                  std::to_string(w.line) +
                  " inside a nowait construct in the same phase: no barrier "
                  "publishes the write before this read on other nodes";
      resolve_diag_columns(unit, &d);
      analysis->diagnostics.push_back(std::move(d));
    }
  }
}

// ---------------------------------------------------------------------------
// Static message-cost model (docs/ANALYZER.md "Message-cost model").

namespace {

/// Largest per-construct affine byte footprint of each file-scope symbol
/// accessed inside a parallel construct. A subscripted DSM array access whose
/// subscripting loops all have static trip counts touches element size x
/// trips bytes (capped at its declared size); any other access touches the
/// whole object.
class FootprintWalker {
 public:
  FootprintWalker(const TranslationUnit& unit, const Analysis& analysis)
      : unit_(unit),
        bounds_(unit),
        global_of_(globals_by_sym(unit, analysis)),
        footprints_(unit.symbols.size(), 0) {
    for (const TopItem& item : unit.items) {
      if (item.kind != TopItem::Kind::kFunction) continue;
      if (item.function.body) visit(*item.function.body);
    }
  }

  /// The symbol's largest per-construct footprint in bytes (0 = none seen).
  std::size_t footprint(Sym sym) const { return footprints_[sym]; }

 private:
  struct LoopCtx {
    Sym var = kNoSym;
    std::size_t trips = 0;  // 0 = statically unknown
  };

  void account(const Expr& expr) {
    if (!in_region_) return;
    const AccessScan acc = unit_.access(expr);
    std::vector<Sym> touched(acc.reads.begin(), acc.reads.end());
    for (const AccessWrite& wr : acc.writes) {
      if (!wr.deref) touched.push_back(wr.sym);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const Sym name : touched) {
      const VarClass* vc = global_of_[name];
      if (vc == nullptr) continue;
      std::size_t bytes = vc->byte_size;  // default: the whole object
      const std::size_t elem =
          vc->placement == Placement::kDsmArray ? vc->base_bytes : 0;
      if (elem > 0 && acc.subscripted(name)) {
        std::size_t trips = 1;
        bool affine = true;
        for (const LoopCtx& l : loops_) {
          if (!acc.subscripted_by(name, l.var)) continue;
          if (l.trips == 0) {
            affine = false;
            break;
          }
          trips *= l.trips;
        }
        if (affine) {
          bytes = elem * trips;
          if (vc->byte_size > 0) bytes = std::min(bytes, vc->byte_size);
        }
      }
      std::size_t& max = footprints_[name];
      max = std::max(max, bytes);
    }
  }

  void visit(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kRaw:
        account(stmt.expr);
        return;
      case StmtKind::kDecl:
        for (const Declarator& d : unit_.declarators_of(*stmt.decl)) {
          account(d.init);
        }
        return;
      case StmtKind::kFor: {
        const ForHeader& h = *stmt.for_header;
        account(h.init_text);
        account(h.cond_text);
        account(h.incr_text);
        loops_.push_back(
            LoopCtx{h.canonical ? h.loop_var : kNoSym,
                    static_cast<std::size_t>(bounds_.trip_count(h))});
        visit_children(stmt);
        loops_.pop_back();
        return;
      }
      case StmtKind::kIf:
      case StmtKind::kWhile:
      case StmtKind::kDoWhile:
      case StmtKind::kSwitch:
        account(stmt.expr);
        break;
      case StmtKind::kPragma: {
        const DirectiveKind k = stmt.directive->kind;
        if (k == DirectiveKind::kParallel || k == DirectiveKind::kParallelFor ||
            k == DirectiveKind::kParallelSections) {
          const bool saved = in_region_;
          in_region_ = true;
          visit_children(stmt);
          in_region_ = saved;
          return;
        }
        break;
      }
      default:
        break;
    }
    visit_children(stmt);
  }

  void visit_children(const Stmt& stmt) {
    for (const Stmt& child : stmt.children()) visit(child);
  }

  const TranslationUnit& unit_;
  LiteralBounds bounds_;
  const std::vector<const VarClass*> global_of_;  // per symbol id
  std::vector<std::size_t> footprints_;          // per symbol id
  std::vector<LoopCtx> loops_;
  bool in_region_ = false;  // serial code carries no protocol traffic
};

}  // namespace

double CostReport::total_lock_acquires() const {
  double total = 0;
  for (const ConstructCost& c : constructs) total += c.lock_acquires;
  return total;
}

double CostReport::total_page_fetches() const {
  double total = 0;
  for (const ConstructCost& c : constructs) total += c.page_fetches;
  return total;
}

double CostReport::total_diffs_created() const {
  double total = 0;
  for (const ConstructCost& c : constructs) total += c.diffs_created;
  return total;
}

std::string CostReport::to_text(const std::string& file) const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(1);
  out << file << ": static message-cost estimate for " << nodes
      << " node(s), tolerance factor " << tolerance_factor << "\n";
  for (const ConstructCost& c : constructs) {
    out << file << ":" << c.line << ": " << c.kind;
    if (!c.detail.empty()) out << " (" << c.detail << ")";
    out << " -> lock_acquires=" << c.lock_acquires
        << " page_fetches=" << c.page_fetches
        << " diffs_created=" << c.diffs_created << "\n";
  }
  out << file << ": total lock_acquires=" << total_lock_acquires()
      << " page_fetches=" << total_page_fetches()
      << " diffs_created=" << total_diffs_created() << "\n";
  return out.str();
}

std::string CostReport::to_json(const std::string& file) const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("file");
  w.value(file);
  w.key("nodes");
  w.value(static_cast<std::int64_t>(nodes));
  w.key("tolerance_factor");
  w.value(tolerance_factor);
  w.key("constructs");
  w.begin_array();
  for (const ConstructCost& c : constructs) {
    w.begin_object();
    w.key("line");
    w.value(static_cast<std::int64_t>(c.line));
    w.key("kind");
    w.value(c.kind);
    w.key("detail");
    w.value(c.detail);
    w.key("lock_acquires");
    w.value(c.lock_acquires);
    w.key("page_fetches");
    w.value(c.page_fetches);
    w.key("diffs_created");
    w.value(c.diffs_created);
    w.end_object();
  }
  w.end_array();
  w.key("totals");
  w.begin_object();
  w.key("dsm.lock_acquires");
  w.value(total_lock_acquires());
  w.key("dsm.page_fetches");
  w.value(total_page_fetches());
  w.key("dsm.diffs_created");
  w.value(total_diffs_created());
  w.end_object();
  w.end_object();
  return w.str();
}

CostReport estimate_message_costs(const TranslationUnit& unit,
                                  const AnalyzeOptions& options,
                                  const Analysis& analysis, int nodes) {
  CostReport report;
  report.nodes = nodes;
  const RegionSequence seq = build_region_sequence(unit, analysis);
  const Timeline timeline = build_timeline(unit, seq, analysis);
  const FootprintWalker footprint(unit, analysis);
  const double n = nodes;
  const double remote_frac = nodes > 1 ? (n - 1) / n : 0.0;

  // Lock messages: every execution of a DSM-path critical/atomic body takes
  // the distributed lock once (runtime dsm_lock per body execution).
  for (const SeqConstruct& c : seq.constructs) {
    if (c.sync_line < 0) continue;
    auto site = analysis.sync_sites.find(c.sync_line);
    if (site == analysis.sync_sites.end() || site->second.collective) {
      continue;
    }
    ConstructCost cost;
    cost.line = c.line;
    cost.kind = c.kind;
    cost.detail = site->second.var;
    cost.lock_acquires =
        static_cast<double>(c.trips) * (c.per_thread ? n : 1.0);
    report.constructs.push_back(std::move(cost));
  }

  // Page messages, per symbol per phase, attributed to the first accessing
  // construct of that phase (docs/ANALYZER.md lists the formulas):
  //  - ping-pong: every remote lock handoff invalidates the holder's copy;
  //    each write round-trips a fetch + a diff with probability (N-1)/N.
  //  - partitioned / sole-writer: the writer diffs each touched page once
  //    per phase; later readers (or neighbors) fetch them.
  for (const auto& [symbol, phases] : timeline) {
    // The declared size, narrowed to the affine footprint when one was
    // measured.
    std::size_t span = analysis.globals.at(std::string(symbol)).byte_size;
    if (const std::size_t fp = footprint.footprint(unit.symbols.find(symbol));
        fp > 0) {
      span = fp;
    }
    if (span == 0) span = options.page_bytes;
    const double pages = std::ceil(static_cast<double>(span) /
                                   static_cast<double>(options.page_bytes));
    for (const auto& [phase, acc] : phases) {
      ConstructCost cost;
      const SeqAccess* anchor = !acc.write_accesses.empty()
                                    ? acc.write_accesses.front()
                                    : acc.read_accesses.front();
      cost.line = anchor->line;
      cost.kind = std::string("phase ") + std::to_string(phase);
      cost.detail = std::string(symbol) + " [" + to_string(acc.pattern) + "]";
      switch (acc.pattern) {
        case SharingPattern::kPingPong: {
          // Pages bounce at most once per *ownership handoff*, not once per
          // store: under HLRC a node keeps the page writable until the next
          // acquire/epoch invalidates it. Lock-guarded writes hand off once
          // per body execution of the guarding sync construct; unguarded
          // concurrent writes dirty each node's copy once per phase.
          double handoffs = 0;
          std::set<int> guard_constructs;
          bool unguarded = false;
          for (const SeqAccess* w : acc.write_accesses) {
            if (!w->locks.empty() && w->construct_id >= 0) {
              guard_constructs.insert(w->construct_id);
            } else {
              unguarded = true;
            }
          }
          for (int id : guard_constructs) {
            const SeqConstruct& g =
                seq.constructs[static_cast<std::size_t>(id)];
            handoffs +=
                static_cast<double>(g.trips) * (g.per_thread ? n : 1.0);
          }
          if (unguarded) handoffs += n;
          cost.page_fetches = handoffs * remote_frac * pages;
          cost.diffs_created = handoffs * remote_frac * pages;
          break;
        }
        case SharingPattern::kProducerConsumer:
        case SharingPattern::kMigratory: {
          bool partitioned = false;
          for (const SeqAccess* w : acc.write_accesses) {
            if (w->partitioned) partitioned = true;
          }
          if (partitioned) {
            // Each node writes its own slice; non-home writers diff their
            // pages, and cross-phase readers fetch remote slices.
            cost.diffs_created = pages * remote_frac;
            cost.page_fetches = pages * remote_frac;
          } else {
            cost.diffs_created = pages;
            bool later_reader = false;
            for (const auto& [other_phase, other] : phases) {
              if (other_phase > phase && other.reads > 0) later_reader = true;
            }
            cost.page_fetches =
                later_reader ? pages * (n - 1) : pages * remote_frac;
          }
          break;
        }
        case SharingPattern::kReadMostly: {
          // Cold fetches only, and only if a previous phase dirtied the
          // pages (otherwise they were distributed at initialization).
          bool written_before = false;
          for (const auto& [other_phase, other] : phases) {
            if (other_phase < phase && other.writes > 0) written_before = true;
          }
          cost.page_fetches = written_before ? pages * (n - 1) : 0;
          break;
        }
      }
      if (cost.page_fetches > 0 || cost.diffs_created > 0) {
        report.constructs.push_back(std::move(cost));
      }
    }
  }
  std::stable_sort(report.constructs.begin(), report.constructs.end(),
                   [](const ConstructCost& a, const ConstructCost& b) {
                     return a.line < b.line;
                   });
  return report;
}

}  // namespace parade::translator

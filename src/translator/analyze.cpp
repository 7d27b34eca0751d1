#include "translator/analyze.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <sstream>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "translator/cfg.hpp"
#include "translator/dataflow.hpp"
#include "translator/interfere.hpp"
#include "translator/parser.hpp"
#include "translator/scopes.hpp"
#include "translator/token.hpp"

namespace parade::translator {
namespace {

// ---------------------------------------------------------------------------
// Declared-size computation

/// Strict positive-integer-literal parse for array dimensions.
bool parse_dim(std::string_view text, std::size_t* out) {
  std::string trimmed;
  for (char c : text) {
    if (c != ' ') trimmed += c;
  }
  if (trimmed.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(trimmed.c_str(), &end, 0);
  if (end == nullptr || *end != '\0' || v == 0) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// Declared byte size of a declarator of type `type` with `pointer_depth`
/// stars and the dimension expressions `dims`; 0 if unknown. A dimension's
/// text is its tokens run together.
std::size_t declared_size(const TranslationUnit& unit, const DeclType& type,
                          int pointer_depth, std::span<const Expr> dims) {
  if (pointer_depth > 0) return sizeof(void*);
  if (type.bytes == 0) return 0;
  std::size_t total = type.bytes;
  std::string text;
  for (const Expr& dim : dims) {
    text.clear();
    for (std::size_t t = dim.span.begin; t < dim.span.end; ++t) {
      text += unit.tokens[t].text;
    }
    std::size_t v = 0;
    if (!parse_dim(text, &v)) return 0;  // symbolic dimension: unknown
    total *= v;
  }
  return total;
}

// ---------------------------------------------------------------------------
// The analyzer

enum class Sharing {
  kShared,
  kPrivate,
  kFirstprivate,
  kLastprivate,
  kReduction,
  kThreadprivate,
  kLocal  // declared inside the parallel region: private by construction
};

struct SymbolInfo {
  const DeclType* type = nullptr;  // null when the binding has no type
  int pointer_depth = 0;
  bool is_array = false;
  bool threadprivate = false;
  bool file_scope = false;
  std::size_t byte_size = 0;  // 0 = unknown
  int line = 0;
};

bool contains(const std::vector<Sym>& set, Sym sym) {
  return std::find(set.begin(), set.end(), sym) != set.end();
}

/// Sorts `syms` and drops repeats.
void sort_unique(std::vector<Sym>* syms) {
  std::sort(syms->begin(), syms->end());
  syms->erase(std::unique(syms->begin(), syms->end()), syms->end());
}

class Analyzer {
 public:
  explicit Analyzer(const AnalyzeOptions& options) : options_(options) {}

  Analysis run(const TranslationUnit& unit);

 private:
  /// One clause attribute of an open construct; the innermost entry for a
  /// name wins, as a later clause overrides an earlier one.
  struct Attr {
    Sym sym = kNoSym;
    Sharing sharing = Sharing::kShared;
    const char* red_op = nullptr;  // kReduction: the C operator
  };

  /// The walk's context. Copying one is cheap: its clause attributes are
  /// the range [attrs_begin, attrs_end) of Analyzer::attrs_.
  struct Env {
    bool in_parallel = false;
    bool race_guarded = false;      // critical/atomic/single/master/ordered
    bool placement_managed = false; // single/atomic/collective-critical
    int divergence = 0;             // conditional / worksharing nesting
    int region_line = 0;
    std::size_t region_depth = 0;   // scope depth at region entry
    bool default_none = false;
    std::uint32_t attrs_begin = 0;
    std::uint32_t attrs_end = 0;
    std::vector<Sym>* race_sink = nullptr;  // sections: defer race checks
    int region_id = -1;   // index into regions_ (-1 outside parallel)
  };

  /// Drops the clause attributes a construct handler added when the
  /// handler returns, and (unless told to keep them) the privates it
  /// marked uninitialized.
  class ConstructMark {
   public:
    explicit ConstructMark(Analyzer* a)
        : a_(a), attrs_(a->attrs_.size()), added_(a->uninit_added_.size()) {}
    ~ConstructMark() {
      a_->attrs_.resize(attrs_);
      for (std::size_t i = added_; keep_uninit_ == false &&
                                   i < a_->uninit_added_.size();
           ++i) {
        a_->uninit_erase(a_->uninit_added_[i]);
      }
      a_->uninit_added_.resize(added_);
    }
    void keep_uninit() { keep_uninit_ = true; }

   private:
    Analyzer* a_;
    std::size_t attrs_;
    std::size_t added_;
    bool keep_uninit_ = false;
  };

  std::string name_of(Sym sym) const { return std::string(unit_->name(sym)); }
  std::string type_text(const SymbolInfo& info) const {
    return info.type == nullptr
               ? std::string()
               : render_tokens(unit_->tokens, info.type->span.begin,
                               info.type->span.end);
  }

  void diag(const char* code, Severity severity, int line, std::string var,
            std::string message) {
    Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.line = line;
    d.var = std::move(var);
    d.message = std::move(message);
    resolve_columns(&d);
    out_.diagnostics.push_back(std::move(d));
  }

  void resolve_columns(Diagnostic* d) const {
    if (unit_ != nullptr) resolve_diag_columns(*unit_, d);
  }

  const Attr* find_attr(const Env& env, Sym sym) const {
    for (std::uint32_t i = env.attrs_end; i-- > env.attrs_begin;) {
      if (attrs_[i].sym == sym) return &attrs_[i];
    }
    return nullptr;
  }
  void add_attr(Env* env, Sym sym, Sharing sharing,
                const char* red_op = nullptr) {
    attrs_.push_back({sym, sharing, red_op});
    env->attrs_end = static_cast<std::uint32_t>(attrs_.size());
  }

  // The current region's uninitialized privates: uninit_[uninit_base_..].
  // A nested region stacks its own set above the enclosing one's.
  std::vector<Sym>::iterator uninit_find(Sym sym) {
    return std::find(uninit_.begin() + static_cast<std::ptrdiff_t>(uninit_base_),
                     uninit_.end(), sym);
  }
  bool uninit_insert(Sym sym) {
    if (uninit_find(sym) != uninit_.end()) return false;
    uninit_.push_back(sym);
    return true;
  }
  void uninit_erase(Sym sym) {
    auto it = uninit_find(sym);
    if (it != uninit_.end()) uninit_.erase(it);
  }

  Sharing sharing_of(Sym name, std::size_t depth, const SymbolInfo& sym,
                     const Env& env, int line);

  void process_text(const Expr& expr, int line, const Env& env);
  void process_read(Sym name, int line, const Env& env);
  void process_write(const AccessWrite& w, const Expr& expr, int line,
                     const Env& env);

  /// Pins `name` to the DSM pool; the first unmanaged write's line wins.
  void mark_dsm(Sym name, int line) {
    if (dsm_mark_line_[name] == 0) dsm_mark_line_[name] = line;
  }

  // --- walking ---
  void walk_stmt(const Stmt& stmt, Env& env);
  void walk_block(const Stmt& block, Env& env);
  void walk_pragma(const Stmt& stmt, Env& env);
  void register_decl(const Stmt& decl, const Env& env, bool file_scope);
  void handle_parallel(const Stmt& stmt, const Env& env);
  void handle_worksharing_for(const Directive& d, const Stmt& body, Env env);
  void handle_sections(const Directive& d, const Stmt& body, Env env);
  void handle_sync(const Stmt& stmt, Env env, bool is_atomic);
  void add_clause_attrs(const Clauses& c, Env* env);

  void collect_writes_rec(const Stmt& stmt, std::vector<Sym>* out) const;
  void collect_reads_rec(const Stmt& stmt, std::vector<Sym>* out) const;

  void register_params(const std::vector<Param>& params);

  // --- flow-sensitive pass (CFG/dataflow over each parallel region) ---
  /// One parallel region recorded during the walk; the CFG is built over the
  /// whole pragma statement so worksharing structure survives.
  struct RegionRec {
    const Stmt* construct = nullptr;
    int line = 0;
    /// Names not shared inside the region: a range of privatelike_.
    std::uint32_t privatelike = 0;
    std::uint32_t n_privatelike = 0;
  };
  /// A def-use diagnostic the flow pass may retire.
  struct FlowCandidate {
    enum class Kind { kUninit, kRace, kNowait };
    Kind kind = Kind::kUninit;
    std::size_t diag_index = 0;
    Sym var = kNoSym;
    int line = 0;            // diagnostic line
    int construct_line = 0;  // nowait construct line (kNowait only)
    int region_id = -1;
  };
  void run_flow_pass();
  bool uninit_is_spurious(const Cfg& cfg, const std::vector<char>& reach,
                          Sym var) const;
  bool nowait_is_spurious(const Cfg& cfg, const std::vector<char>& reach,
                          const FlowResult& taint,
                          const FlowCandidate& c) const;
  bool shared_in_region(Sym name, const RegionRec& rec, const Cfg& cfg) const;
  void report_lock_cycles();

  AnalyzeOptions options_;
  Analysis out_;
  const TranslationUnit* unit_ = nullptr;  // set for the duration of run()
  ScopedTable<SymbolInfo> scopes_;
  std::vector<Attr> attrs_;         // attributes of the open constructs
  std::vector<Sym> uninit_;         // privates not yet written, per region
  std::size_t uninit_base_ = 0;     // the current region's first entry
  std::vector<Sym> uninit_added_;   // marks the open constructs added
  std::vector<int> dsm_mark_line_;  // per symbol: line that pinned it, or 0
  std::vector<const VarClass*> global_of_;  // per symbol: its file-scope entry
  std::set<std::pair<int, Sym>> default_none_reported_;  // (region line, name)
  std::vector<RegionRec> regions_;
  std::vector<Sym> privatelike_;  // every region's RegionRec::privatelike
  std::vector<FlowCandidate> candidates_;
  // walk_block's scratch: one statement's reads, and a nowait construct's
  // private and written names.
  std::vector<Sym> scratch_reads_;
  std::vector<Sym> scratch_private_;
  std::vector<Sym> scratch_written_;
  Cfg cfg_;                  // the flow pass's CFG, rebuilt per region
  std::vector<char> reach_;  // cfg_'s reachable blocks
  // Lock-order graph over nested named criticals (TU-wide): edge outer->inner
  // with the line of the inner critical that closed it.
  std::vector<std::string> lock_stack_;
  std::map<std::pair<std::string, std::string>, int> lock_edges_;
};

Sharing Analyzer::sharing_of(Sym name, std::size_t depth,
                             const SymbolInfo& sym, const Env& env, int line) {
  if (sym.threadprivate) return Sharing::kThreadprivate;
  if (!env.in_parallel) return Sharing::kShared;
  if (depth >= env.region_depth) return Sharing::kLocal;
  if (const Attr* attr = find_attr(env, name)) return attr->sharing;
  if (env.default_none) {
    if (default_none_reported_.insert({env.region_line, name}).second) {
      const std::string var = name_of(name);
      diag(kDiagDefaultNoneMissing, Severity::kError, line, var,
           "'" + var + "' is referenced in a default(none) region (line " +
               std::to_string(env.region_line) +
               ") but has no explicit data-sharing attribute");
    }
  }
  return Sharing::kShared;
}

void Analyzer::process_read(Sym name, int line, const Env& env) {
  std::size_t depth = 0;
  const SymbolInfo* sym = scopes_.lookup(name, &depth);
  if (sym == nullptr) return;
  if (!env.in_parallel) return;
  const Sharing sh = sharing_of(name, depth, *sym, env, line);
  if ((sh == Sharing::kPrivate || sh == Sharing::kLastprivate) &&
      uninit_find(name) != uninit_.end()) {
    const std::string var = name_of(name);
    diag(kDiagPrivateUninitRead, Severity::kWarning, line, var,
         "private '" + var + "' is read before any write in the parallel " +
             "region at line " + std::to_string(env.region_line) +
             " (private copies start uninitialized)");
    candidates_.push_back(FlowCandidate{FlowCandidate::Kind::kUninit,
                                        out_.diagnostics.size() - 1, name,
                                        line, 0, env.region_id});
    uninit_erase(name);
  }
}

void Analyzer::process_write(const AccessWrite& w, const Expr& expr, int line,
                             const Env& env) {
  std::size_t depth = 0;
  const SymbolInfo* sym = scopes_.lookup(w.sym, &depth);
  if (sym == nullptr) return;
  uninit_erase(w.sym);
  if (!env.in_parallel) return;
  if (w.deref) return;  // store through a pointer: target unknown statically
  const Sharing sh = sharing_of(w.sym, depth, *sym, env, line);

  if (w.array || sym->is_array) return;  // per-element stores: not flagged

  if (sh == Sharing::kReduction) {
    const std::string_view op = find_attr(env, w.sym)->red_op;
    // Logical forms aren't update-shaped.
    if (!text_is(op, "&&") && !text_is(op, "||")) {
      auto m = match_scalar_update(unit_->tokens, expr.span);
      const bool compatible =
          m.has_value() && m->sym == w.sym &&
          ((op.size() == 1 && m->apply_op == op[0]) ||
           (text_is(op, "+") && m->apply_op == '-'));
      if (!compatible) {
        const std::string var = name_of(w.sym);
        diag(kDiagReductionMisuse, Severity::kWarning, line, var,
             "'" + var + "' carries a reduction(" + std::string(op) +
                 ") clause but this statement is not a matching reduction "
                 "update; the result is unspecified");
      }
    }
    return;
  }
  if (sh != Sharing::kShared) return;

  if (w.member && sym->pointer_depth > 0) return;  // p->f: target unknown

  if (!env.race_guarded) {
    if (env.race_sink != nullptr) {
      env.race_sink->push_back(w.sym);
    } else {
      const std::string var = name_of(w.sym);
      diag(kDiagRaceSharedWrite, Severity::kError, line, var,
           "unsynchronized write to shared '" + var +
               "' in the parallel region at line " +
               std::to_string(env.region_line) +
               "; no atomic/critical/reduction guards this store");
      candidates_.push_back(FlowCandidate{FlowCandidate::Kind::kRace,
                                          out_.diagnostics.size() - 1, w.sym,
                                          line, 0, env.region_id});
    }
  }
  if (!env.placement_managed && sym->file_scope && !w.member &&
      sym->pointer_depth == 0 && !sym->threadprivate) {
    mark_dsm(w.sym, line);
  }
}

void Analyzer::process_text(const Expr& expr, int line, const Env& env) {
  const AccessScan acc = unit_->access(expr);
  // Reads first: in `x = x + 1` the right-hand read happens before the store.
  for (const Sym name : acc.reads) process_read(name, line, env);
  for (const AccessWrite& w : acc.writes) process_write(w, expr, line, env);
}

void Analyzer::add_clause_attrs(const Clauses& c, Env* env) {
  for (const ClauseVar& v : c.privates) {
    add_attr(env, v.sym, Sharing::kPrivate);
    if (uninit_insert(v.sym)) uninit_added_.push_back(v.sym);
  }
  for (const ClauseVar& v : c.firstprivate) {
    add_attr(env, v.sym, Sharing::kFirstprivate);
  }
  for (const ClauseVar& v : c.lastprivate) {
    add_attr(env, v.sym, Sharing::kLastprivate);
    if (uninit_insert(v.sym)) uninit_added_.push_back(v.sym);
  }
  for (const auto& [op, v] : c.reductions) {
    add_attr(env, v.sym, Sharing::kReduction, reduction_operator(op));
  }
  for (const ClauseVar& v : c.shared) add_attr(env, v.sym, Sharing::kShared);
}

void Analyzer::register_decl(const Stmt& stmt, const Env& env,
                             bool file_scope) {
  const Decl& decl = *stmt.decl;
  for (const Declarator& d : unit_->declarators_of(decl)) {
    process_text(d.init, stmt.line, env);
    const std::span<const Expr> dims = unit_->dims_of(d);
    for (const Expr& dim : dims) process_text(dim, stmt.line, env);
    if (d.is_function) continue;
    SymbolInfo info;
    info.type = &decl.type;
    info.pointer_depth = d.pointer_depth;
    info.is_array = !dims.empty();
    info.file_scope = file_scope;
    info.byte_size = declared_size(*unit_, decl.type, d.pointer_depth, dims);
    info.line = stmt.line;
    scopes_.declare(d.name, info);
  }
}

void Analyzer::collect_writes_rec(const Stmt& stmt,
                                  std::vector<Sym>* out) const {
  switch (stmt.kind) {
    case StmtKind::kRaw: {
      for (const AccessWrite& w : unit_->access(stmt.expr).writes) {
        if (!w.deref) out->push_back(w.sym);
      }
      return;
    }
    case StmtKind::kFor: {
      const ForHeader& h = *stmt.for_header;
      for (const AccessWrite& w : unit_->access(h.init_text).writes) {
        out->push_back(w.sym);
      }
      for (const AccessWrite& w : unit_->access(h.incr_text).writes) {
        out->push_back(w.sym);
      }
      break;
    }
    default:
      break;
  }
  for (const Stmt& child : stmt.children()) collect_writes_rec(child, out);
}

void Analyzer::collect_reads_rec(const Stmt& stmt,
                                 std::vector<Sym>* out) const {
  auto add_text = [&](const Expr& expr) {
    for (const Sym r : unit_->access(expr).reads) out->push_back(r);
  };
  switch (stmt.kind) {
    case StmtKind::kRaw:
      add_text(stmt.expr);
      return;
    case StmtKind::kDecl:
      for (const Declarator& d : unit_->declarators_of(*stmt.decl)) {
        add_text(d.init);
      }
      return;
    case StmtKind::kFor:
      add_text(stmt.for_header->init_text);
      add_text(stmt.for_header->cond_text);
      add_text(stmt.for_header->incr_text);
      break;
    case StmtKind::kIf:
    case StmtKind::kWhile:
    case StmtKind::kDoWhile:
    case StmtKind::kSwitch:
      add_text(stmt.expr);
      break;
    default:
      break;
  }
  for (const Stmt& child : stmt.children()) collect_reads_rec(child, out);
}

void Analyzer::walk_block(const Stmt& block, Env& env) {
  scopes_.push_scope();
  struct Pending {
    std::vector<Sym> writes;  // sorted
    int line;
  };
  std::vector<Pending> pending;  // nowait constructs awaiting a barrier
  for (const Stmt& child : block.children()) {
    // Any read of a name written by a still-unbarriered nowait construct is
    // a dependence the dropped barrier no longer orders.
    if (env.in_parallel && !pending.empty()) {
      scratch_reads_.clear();
      collect_reads_rec(child, &scratch_reads_);
      sort_unique(&scratch_reads_);
      for (auto& p : pending) {
        // Report in name order, as each construct's writes are named.
        std::vector<Sym> hit;
        for (const Sym name : p.writes) {
          if (std::binary_search(scratch_reads_.begin(), scratch_reads_.end(),
                                 name)) {
            hit.push_back(name);
          }
        }
        std::sort(hit.begin(), hit.end(), [&](Sym a, Sym b) {
          return unit_->name(a) < unit_->name(b);
        });
        for (const Sym name : hit) {
          p.writes.erase(std::find(p.writes.begin(), p.writes.end(), name));
          const std::string var = name_of(name);
          diag(kDiagNowaitDependentRead, Severity::kWarning, child.line, var,
               "'" + var + "' is read here but written by the nowait "
               "worksharing construct at line " + std::to_string(p.line) +
               " with no intervening barrier");
          candidates_.push_back(FlowCandidate{
              FlowCandidate::Kind::kNowait, out_.diagnostics.size() - 1, name,
              child.line, p.line, env.region_id});
        }
      }
    }

    if (child.kind == StmtKind::kDecl) {
      register_decl(child, env, /*file_scope=*/false);
    } else {
      walk_stmt(child, env);
    }

    if (env.in_parallel && child.kind == StmtKind::kPragma) {
      const Directive& d = *child.directive;
      const bool worksharing = d.kind == DirectiveKind::kFor ||
                               d.kind == DirectiveKind::kSections ||
                               d.kind == DirectiveKind::kSingle;
      if (d.kind == DirectiveKind::kBarrier) {
        pending.clear();
      } else if (worksharing) {
        if (d.clauses.nowait) {
          // Clause-privates of the construct die at its end; only data
          // visible to the team can carry the dependence.
          std::vector<Sym>& construct_private = scratch_private_;
          construct_private.clear();
          for (const ClauseVar& v : d.clauses.privates) {
            construct_private.push_back(v.sym);
          }
          for (const ClauseVar& v : d.clauses.firstprivate) {
            construct_private.push_back(v.sym);
          }
          for (const ClauseVar& v : d.clauses.lastprivate) {
            construct_private.push_back(v.sym);
          }
          for (const auto& [op, v] : d.clauses.reductions) {
            (void)op;
            construct_private.push_back(v.sym);
          }
          Pending p;
          p.line = d.line;
          if (child.first_child != nullptr) {
            const Stmt& construct_body = *child.first_child;
            if (construct_body.kind == StmtKind::kFor &&
                construct_body.for_header->canonical) {
              // The worksharing loop variable is implicitly private.
              construct_private.push_back(
                  construct_body.for_header->loop_var);
            }
            std::vector<Sym>& written = scratch_written_;
            written.clear();
            collect_writes_rec(construct_body, &written);
            sort_unique(&written);
            for (const Sym name : written) {
              if (contains(construct_private, name)) continue;
              std::size_t depth = 0;
              const SymbolInfo* sym = scopes_.lookup(name, &depth);
              if (sym == nullptr) continue;
              if (sharing_of(name, depth, *sym, env, d.line) ==
                  Sharing::kShared) {
                p.writes.push_back(name);
              }
            }
          }
          if (!p.writes.empty()) pending.push_back(std::move(p));
        } else {
          pending.clear();  // implicit barrier at construct end
        }
      }
    }
  }
  scopes_.pop_scope();
}

void Analyzer::handle_worksharing_for(const Directive& d, const Stmt& body,
                                      Env env) {
  ConstructMark mark(this);
  add_clause_attrs(d.clauses, &env);
  if (body.kind != StmtKind::kFor) {
    // CodeGen rejects this; still scan for diagnostics.
    walk_stmt(body, env);
    mark.keep_uninit();
    return;
  }
  const ForHeader& h = *body.for_header;
  scopes_.push_scope();
  if (h.canonical) {
    process_text(h.lower, body.line, env);
    process_text(h.upper, body.line, env);
    process_text(h.step, body.line, env);
    if (h.declares_var()) {
      SymbolInfo info;
      info.type = &h.var_type;
      info.byte_size = h.var_type.bytes;
      info.line = body.line;
      scopes_.declare(h.loop_var, info);
    } else {
      // The worksharing loop variable is private per the OpenMP rules and is
      // initialized by the scheduler, never uninitialized.
      add_attr(&env, h.loop_var, Sharing::kPrivate);
      uninit_erase(h.loop_var);
    }
  } else {
    process_text(h.init_text, body.line, env);
    process_text(h.cond_text, body.line, env);
    process_text(h.incr_text, body.line, env);
  }
  ++env.divergence;  // a barrier inside a worksharing body is divergent
  if (body.first_child != nullptr) walk_stmt(*body.first_child, env);
  scopes_.pop_scope();
}

void Analyzer::handle_sections(const Directive& d, const Stmt& body, Env env) {
  const ConstructMark mark(this);
  add_clause_attrs(d.clauses, &env);
  std::vector<const Stmt*> sections;
  if (body.kind == StmtKind::kBlock) {
    for (const Stmt& child : body.children()) {
      if (child.kind == StmtKind::kPragma &&
          child.directive->kind == DirectiveKind::kSection) {
        if (child.first_child != nullptr) sections.push_back(child.first_child);
      } else if (child.kind != StmtKind::kEmpty) {
        sections.push_back(&child);
      }
    }
  } else {
    sections.push_back(&body);
  }
  // Each section runs on one thread: a write in a single section is not a
  // race by itself, but the same shared name written from two sections is.
  std::vector<Sym> writers;  // each section's written names, once each
  for (const Stmt* section : sections) {
    std::vector<Sym> writes;
    Env senv = env;
    ++senv.divergence;
    senv.race_sink = &writes;
    scopes_.push_scope();
    walk_stmt(*section, senv);
    scopes_.pop_scope();
    sort_unique(&writes);
    writers.insert(writers.end(), writes.begin(), writes.end());
  }
  std::sort(writers.begin(), writers.end(), [&](Sym a, Sym b) {
    return unit_->name(a) < unit_->name(b);
  });
  for (std::size_t i = 0; i < writers.size();) {
    std::size_t j = i;
    while (j < writers.size() && writers[j] == writers[i]) ++j;
    const std::size_t count = j - i;
    if (count >= 2) {
      const std::string var = name_of(writers[i]);
      diag(kDiagRaceSharedWrite, Severity::kError, d.line, var,
           "shared '" + var + "' is written by " + std::to_string(count) +
               " different sections of the sections construct at line " +
               std::to_string(d.line) + " (sections run concurrently)");
    }
    i = j;
  }
}

void Analyzer::handle_sync(const Stmt& stmt, Env env, bool is_atomic) {
  const Directive& d = *stmt.directive;
  const Stmt* inner = stmt.first_child;
  if (inner != nullptr && inner->kind == StmtKind::kBlock &&
      inner->child_count() == 1) {
    inner = inner->first_child;
  }

  SyncDecision dec;
  dec.line = d.line;
  dec.is_atomic = is_atomic;
  std::string reason;
  std::optional<UpdateShape> shape;
  if (inner == nullptr || inner->kind != StmtKind::kRaw) {
    reason = "body is not a single expression statement";
  } else if (!(shape = match_scalar_update(unit_->tokens, inner->expr.span))) {
    reason = inner->expr.has_call
                 ? "update expression calls a function"
                 : "statement is not a scalar update "
                   "(x op= expr, x++, x = x op expr)";
  } else {
    dec.var = unit_->tokens[shape->var].text;
    std::size_t depth = 0;
    const SymbolInfo* sym = scopes_.lookup(shape->sym, &depth);
    if (sym == nullptr) {
      reason = "no visible declaration for '" + dec.var + "'";
    } else if (sym->is_array || sym->pointer_depth > 0) {
      reason = "'" + dec.var + "' is not a scalar";
    } else {
      const Sharing sh = sharing_of(shape->sym, depth, *sym, env, d.line);
      if (sh == Sharing::kThreadprivate) {
        reason = "'" + dec.var + "' is threadprivate; per-thread updates "
                 "need no collective";
      } else if (sh != Sharing::kShared) {
        reason = "'" + dec.var + "' is not shared in the enclosing "
                 "parallel region; a collective would merge private copies";
      } else if (sym->byte_size == 0) {
        reason = "declared type '" + type_text(*sym) +
                 "' has no statically known size; page consistency is the "
                 "safe fallback";
      } else if (sym->byte_size > options_.mp_threshold_bytes) {
        reason = "declared size " + std::to_string(sym->byte_size) +
                 " B exceeds the update-collective threshold " +
                 std::to_string(options_.mp_threshold_bytes) + " B";
      } else {
        dec.collective = true;
      }
    }
  }
  dec.reason = reason;
  const bool collective = dec.collective;
  const std::string var = dec.var;
  out_.sync_sites[d.line] = std::move(dec);

  const char* construct = is_atomic ? "atomic" : "critical";
  if (is_atomic && !shape.has_value()) {
    diag(kDiagAtomicNotUpdate, Severity::kError, d.line, "",
         "atomic statement is not a supported update "
         "(x op= expr, x++, x = x op expr): " + reason);
  } else if (!collective) {
    diag(kDiagSyncDsmFallback, Severity::kNote, d.line, var,
         std::string(construct) + " at line " + std::to_string(d.line) +
             " maps to the DSM lock path, not update-by-collective: " +
             reason);
  }

  if (inner != nullptr) {
    Env benv = env;
    benv.race_guarded = true;
    benv.placement_managed = collective;
    benv.race_sink = nullptr;
    if (!is_atomic) {
      // Lock-order graph: nesting critical(B) inside critical(A) orders the
      // DSM locks A -> B; a cycle across the TU is a deadlock candidate.
      const std::string& lock = d.clauses.critical_name;  // "" = the one
                                                          // anonymous lock
      for (const std::string& outer : lock_stack_) {
        lock_edges_.try_emplace({outer, lock}, d.line);
      }
      lock_stack_.push_back(lock);
      walk_stmt(*stmt.first_child, benv);
      lock_stack_.pop_back();
    } else {
      walk_stmt(*stmt.first_child, benv);
    }
  }
}

void Analyzer::handle_parallel(const Stmt& stmt, const Env& env) {
  const Directive& d = *stmt.directive;
  // firstprivate snapshots read the outer values before the fork.
  for (const ClauseVar& v : d.clauses.firstprivate) {
    process_read(v.sym, d.line, env);
  }
  // The region starts its own uninitialized set above the outer one, which
  // comes back whole when it ends.
  const std::size_t saved_base = uninit_base_;
  uninit_base_ = uninit_.size();
  const std::size_t saved_attrs = attrs_.size();
  const std::size_t saved_added = uninit_added_.size();

  Env penv;
  penv.in_parallel = true;
  penv.region_line = d.line;
  penv.region_depth = scopes_.depth();
  penv.default_none = d.clauses.has_default && !d.clauses.default_shared;
  penv.divergence = 0;
  penv.attrs_begin = penv.attrs_end = static_cast<std::uint32_t>(attrs_.size());
  add_clause_attrs(d.clauses, &penv);

  if (stmt.first_child != nullptr) {
    const Stmt& body = *stmt.first_child;
    penv.region_id = static_cast<int>(regions_.size());
    RegionRec rec;
    rec.construct = &stmt;
    rec.line = d.line;
    rec.privatelike = static_cast<std::uint32_t>(privatelike_.size());
    for (std::uint32_t i = penv.attrs_begin; i < penv.attrs_end; ++i) {
      const Attr& a = attrs_[i];
      if (find_attr(penv, a.sym) == &a && a.sharing != Sharing::kShared) {
        privatelike_.push_back(a.sym);
      }
    }
    if (body.kind == StmtKind::kFor && body.for_header->canonical) {
      privatelike_.push_back(body.for_header->loop_var);
    }
    rec.n_privatelike =
        static_cast<std::uint32_t>(privatelike_.size()) - rec.privatelike;
    regions_.push_back(rec);
    switch (d.kind) {
      case DirectiveKind::kParallelFor:
        handle_worksharing_for(d, body, penv);
        break;
      case DirectiveKind::kParallelSections:
        handle_sections(d, body, penv);
        break;
      default:
        walk_stmt(body, penv);
        break;
    }
  }
  attrs_.resize(saved_attrs);
  uninit_added_.resize(saved_added);
  uninit_.resize(uninit_base_);
  uninit_base_ = saved_base;
}

void Analyzer::walk_pragma(const Stmt& stmt, Env& env) {
  const Directive& d = *stmt.directive;
  const Stmt* body = stmt.first_child;
  switch (d.kind) {
    case DirectiveKind::kParallel:
    case DirectiveKind::kParallelFor:
    case DirectiveKind::kParallelSections:
      handle_parallel(stmt, env);
      return;
    case DirectiveKind::kFor:
      if (body != nullptr) handle_worksharing_for(d, *body, env);
      return;
    case DirectiveKind::kSections:
      if (body != nullptr) handle_sections(d, *body, env);
      return;
    case DirectiveKind::kSection:
      if (body != nullptr) walk_stmt(*body, env);
      return;
    case DirectiveKind::kSingle: {
      if (body == nullptr) return;
      Env senv = env;
      senv.race_guarded = true;
      senv.placement_managed = true;  // results travel in the broadcast
      senv.race_sink = nullptr;
      walk_stmt(*body, senv);
      return;
    }
    case DirectiveKind::kMaster:
    case DirectiveKind::kOrdered: {
      if (body == nullptr) return;
      Env menv = env;
      menv.race_guarded = true;  // one thread executes
      menv.race_sink = nullptr;
      // placement stays unmanaged: nothing propagates these stores except
      // the DSM, so the written globals must live on pages.
      walk_stmt(*body, menv);
      return;
    }
    case DirectiveKind::kCritical:
      handle_sync(stmt, env, /*is_atomic=*/false);
      return;
    case DirectiveKind::kAtomic:
      handle_sync(stmt, env, /*is_atomic=*/true);
      return;
    case DirectiveKind::kBarrier:
      if (env.in_parallel && (env.divergence > 0 || env.race_guarded)) {
        diag(kDiagBarrierDivergence, Severity::kError, d.line, "",
             "barrier inside a conditional or worksharing construct: not "
             "all threads are guaranteed to reach it");
      }
      return;
    case DirectiveKind::kFlush:
    case DirectiveKind::kThreadprivate:
      return;
  }
}

void Analyzer::walk_stmt(const Stmt& stmt, Env& env) {
  switch (stmt.kind) {
    case StmtKind::kBlock:
      walk_block(stmt, env);
      return;
    case StmtKind::kRaw:
      process_text(stmt.expr, stmt.line, env);
      return;
    case StmtKind::kDecl:
      // Reached for decls outside block child lists (e.g. loop bodies that
      // are bare declarations); register into the current scope.
      register_decl(stmt, env, /*file_scope=*/false);
      return;
    case StmtKind::kFor: {
      const ForHeader& h = *stmt.for_header;
      scopes_.push_scope();
      if (h.canonical && h.declares_var()) {
        SymbolInfo info;
        info.type = &h.var_type;
        info.byte_size = h.var_type.bytes;
        info.line = stmt.line;
        scopes_.declare(h.loop_var, info);
      }
      process_text(h.init_text, stmt.line, env);
      process_text(h.cond_text, stmt.line, env);
      process_text(h.incr_text, stmt.line, env);
      Env benv = env;
      ++benv.divergence;
      if (stmt.first_child != nullptr) walk_stmt(*stmt.first_child, benv);
      scopes_.pop_scope();
      return;
    }
    case StmtKind::kIf:
    case StmtKind::kWhile:
    case StmtKind::kDoWhile:
    case StmtKind::kSwitch: {
      process_text(stmt.expr, stmt.line, env);
      Env benv = env;
      ++benv.divergence;
      for (const Stmt& child : stmt.children()) walk_stmt(child, benv);
      return;
    }
    case StmtKind::kLabel:
      if (stmt.first_child != nullptr) walk_stmt(*stmt.first_child, env);
      return;
    case StmtKind::kPragma:
      walk_pragma(stmt, env);
      return;
    case StmtKind::kHashLine:
    case StmtKind::kEmpty:
      return;
  }
}

void Analyzer::register_params(const std::vector<Param>& params) {
  for (const Param& p : params) {
    SymbolInfo info;
    info.type = &p.type;
    info.pointer_depth = p.pointer_depth;
    info.is_array = p.is_array;
    info.byte_size =
        p.pointer_depth > 0 || p.is_array ? sizeof(void*) : p.type.bytes;
    scopes_.declare(p.name, info);
  }
}

Analysis Analyzer::run(const TranslationUnit& unit) {
  unit_ = &unit;
  const std::size_t symbols = unit.symbols.size();
  scopes_.reset(symbols);
  dsm_mark_line_.assign(symbols, 0);
  global_of_.assign(symbols, nullptr);
  scopes_.push_scope();  // file scope

  // threadprivate(list) pragmas may follow the declaration they mark.
  std::vector<Sym> threadprivate_names;
  for (const TopItem& item : unit.items) {
    if (item.kind == TopItem::Kind::kPragma &&
        item.stmt->directive->kind == DirectiveKind::kThreadprivate) {
      for (const ClauseVar& v : item.stmt->directive->clauses.flush_list) {
        threadprivate_names.push_back(v.sym);
      }
    }
  }

  Env file_env;
  for (const TopItem& item : unit.items) {
    if (item.kind != TopItem::Kind::kDecl) continue;
    const Stmt& stmt = *item.stmt;
    register_decl(stmt, file_env, /*file_scope=*/true);
    for (const Declarator& d : unit.declarators_of(*stmt.decl)) {
      if (d.is_function) continue;
      SymbolInfo& info = *scopes_.lookup(d.name);
      info.threadprivate = contains(threadprivate_names, d.name);
      VarClass vc;
      vc.type = render_tokens(unit.tokens, stmt.decl->type.span.begin,
                              stmt.decl->type.span.end);
      vc.byte_size = info.byte_size;
      vc.base_bytes = stmt.decl->type.bytes;
      vc.line = stmt.line;
      if (info.threadprivate) {
        vc.placement = Placement::kThreadprivate;
        vc.reason = "threadprivate: one instance per thread, never shared";
      } else if (info.is_array) {
        vc.placement = Placement::kDsmArray;
        vc.reason = "file-scope array: page-granularity DSM placement";
      } else if (info.pointer_depth > 0) {
        vc.placement = Placement::kReplicated;
        vc.reason = "file-scope pointer: node-replicated handle";
      } else {
        vc.placement = Placement::kReplicated;  // provisional
      }
      VarClass& entry = out_.globals[std::string(unit.name(d.name))];
      entry = std::move(vc);
      global_of_[d.name] = &entry;
    }
  }

  for (const TopItem& item : unit.items) {
    if (item.kind != TopItem::Kind::kFunction) continue;
    scopes_.push_scope();
    register_params(item.function.param_list);
    Env env;
    if (item.function.body) walk_stmt(*item.function.body, env);
    while (scopes_.depth() > 1) scopes_.pop_scope();
    uninit_.clear();
  }

  if (options_.flow_sensitive) {
    run_flow_pass();
    report_lock_cycles();
  }

  // Finalize scalar placements from the unmanaged-write marks. Writes in a
  // collective-path critical/atomic body leave no mark: the collective
  // propagates the value itself, so the variable stays node-replicated.
  for (auto& [name, vc] : out_.globals) {
    if (vc.placement != Placement::kReplicated || !vc.reason.empty()) continue;
    const int line = dsm_mark_line_[unit.symbols.find(name)];
    if (line != 0) {
      vc.placement = Placement::kDsmScalar;
      vc.reason = "written by an unmanaged statement in a parallel context "
                  "(line " + std::to_string(line) + "); HLRC page consistency "
                  "must propagate it";
    } else {
      vc.reason =
          "all parallel-context writes are synchronization-managed; "
          "node-replicated with update-by-collective";
    }
  }

  // Whole-program interference pass (translator/interfere.cpp): the
  // cross-region diagnostics. Needs the final placements (above), so it
  // runs last.
  if (options_.flow_sensitive) {
    run_interference(unit, &out_);
  }

  // Deterministic output order: the walk emits in traversal order, which is
  // stable, but the flow and interference passes append out of line order.
  // Sort so text/JSON/SARIF renderings are byte-stable across platforms.
  auto sort_diags = [](std::vector<Diagnostic>* diags) {
    std::stable_sort(diags->begin(), diags->end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       if (a.line != b.line) return a.line < b.line;
                       if (a.code != b.code) return a.code < b.code;
                       return a.var < b.var;
                     });
  };
  sort_diags(&out_.diagnostics);
  sort_diags(&out_.suppressed);
  unit_ = nullptr;
  return std::move(out_);
}

void Analyzer::run_flow_pass() {
  std::set<std::size_t> drop;
  std::set<int> unmatched_lines;            // dedup across nested-region CFGs
  std::set<std::pair<int, Sym>> stale_reported;
  std::vector<Sym> written;
  for (std::size_t ri = 0; ri < regions_.size(); ++ri) {
    const RegionRec& rec = regions_[ri];
    build_cfg(*rec.construct, *unit_, &cfg_);
    cfg_.reachable(&reach_);
    const Cfg& cfg = cfg_;
    const std::vector<char>& reach = reach_;
    RegionSummary rs;
    rs.line = rec.line;
    rs.blocks = cfg.blocks.size();
    rs.edges = cfg.edge_count();
    rs.loops = cfg.loops.size();

    // Nowait taint: a bit per nowait construct, set at its exit, killed by
    // any barrier (explicit or implicit, at any nesting depth).
    FlowResult taint;
    bool have_taint = false;
    if (!cfg.nowaits.empty()) {
      DataflowProblem p;
      p.direction = FlowDirection::kForward;
      p.meet = MeetOp::kUnion;
      p.bits = cfg.nowaits.size();
      p.transfer.resize(cfg.blocks.size());
      for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        BitSet gen(p.bits);
        BitSet kill(p.bits);
        for (const CfgEvent& e : cfg.events(b)) {
          if (e.kind == CfgEventKind::kBarrier) {
            gen.clear();
            kill.set_all();
          } else if (e.kind == CfgEventKind::kNowaitExit) {
            gen.set(static_cast<std::size_t>(e.id));
          }
        }
        p.transfer[b] = Transfer{std::move(gen), std::move(kill)};
      }
      taint = solve_dataflow(cfg, p);
      have_taint = true;
    }

    for (const FlowCandidate& c : candidates_) {
      if (c.region_id != static_cast<int>(ri)) continue;
      bool spurious = false;
      switch (c.kind) {
        case FlowCandidate::Kind::kRace: {
          // The write only exists on statically dead paths (e.g. after an
          // unconditional return): no executing thread stores to it.
          bool found_any = false;
          bool found_reachable = false;
          for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
            for (const CfgEvent& e : cfg.events(b)) {
              if (e.kind == CfgEventKind::kWrite && e.sym == c.var &&
                  e.line == c.line) {
                found_any = true;
                if (reach[b] != 0) found_reachable = true;
              }
            }
          }
          spurious = found_any && !found_reachable;
          break;
        }
        case FlowCandidate::Kind::kUninit:
          spurious = uninit_is_spurious(cfg, reach, c.var);
          break;
        case FlowCandidate::Kind::kNowait:
          spurious = have_taint && nowait_is_spurious(cfg, reach, taint, c);
          break;
      }
      if (spurious) {
        drop.insert(c.diag_index);
        ++rs.suppressed;
      }
    }

    // barrier.unmatched: if/else arms with different explicit-barrier
    // counts — threads taking different arms arrive at different barrier
    // sequences and the team wedges.
    for (const CfgBranch& br : cfg.branches) {
      if (!br.has_else || br.then_barriers == br.else_barriers) continue;
      if (!unmatched_lines.insert(br.line).second) continue;
      diag(kDiagBarrierUnmatched, Severity::kError, br.line, "",
           "if/else arms contain different numbers of explicit barriers (" +
               std::to_string(br.then_barriers) + " vs " +
               std::to_string(br.else_barriers) +
               "); threads taking different arms deadlock at the barrier");
    }

    // dsm.stale_read_loop: a non-worksharing loop spinning on a shared
    // variable with no write to it and no barrier/flush inside the loop —
    // under HLRC the remote store is never propagated, so the loop hangs.
    for (std::size_t li = 0; li < cfg.loops.size(); ++li) {
      if (cfg.loops[li].worksharing) continue;
      bool has_sync = false;
      written.clear();
      for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (!cfg.block_in_loop(static_cast<int>(b), static_cast<int>(li))) {
          continue;
        }
        for (const CfgEvent& e : cfg.events(b)) {
          if (e.kind == CfgEventKind::kBarrier ||
              e.kind == CfgEventKind::kSync) {
            has_sync = true;
          } else if (e.kind == CfgEventKind::kWrite) {
            written.push_back(e.sym);
          }
        }
      }
      if (has_sync) continue;
      const int head = cfg.loops[li].head;
      if (head < 0) continue;
      for (const CfgEvent& e : cfg.events(static_cast<std::size_t>(head))) {
        if (e.kind != CfgEventKind::kRead || !e.loop_cond) continue;
        if (!shared_in_region(e.sym, rec, cfg)) continue;
        if (contains(written, e.sym)) continue;
        if (!stale_reported.insert({cfg.loops[li].line, e.sym}).second) {
          continue;
        }
        const std::string var = name_of(e.sym);
        diag(kDiagStaleReadLoop, Severity::kWarning, cfg.loops[li].line, var,
             "loop condition re-reads shared '" + var +
                 "' with no write, barrier, or flush inside the loop; under "
                 "HLRC the remote update is never propagated, so this "
                 "spin-wait never terminates");
      }
    }

    out_.regions.push_back(rs);
  }

  if (!drop.empty()) {
    std::vector<Diagnostic> kept;
    kept.reserve(out_.diagnostics.size() - drop.size());
    for (std::size_t i = 0; i < out_.diagnostics.size(); ++i) {
      if (drop.count(i) > 0) {
        out_.suppressed.push_back(std::move(out_.diagnostics[i]));
      } else {
        kept.push_back(std::move(out_.diagnostics[i]));
      }
    }
    out_.diagnostics = std::move(kept);
  }
}

bool Analyzer::shared_in_region(Sym name, const RegionRec& rec,
                                const Cfg& cfg) const {
  const VarClass* global = global_of_[name];
  if (global == nullptr) return false;
  if (global->placement == Placement::kThreadprivate) return false;
  const auto first =
      privatelike_.begin() + static_cast<std::ptrdiff_t>(rec.privatelike);
  return std::find(first, first + rec.n_privatelike, name) ==
             first + rec.n_privatelike &&
         !cfg.is_local(name);
}

bool Analyzer::uninit_is_spurious(const Cfg& cfg,
                                  const std::vector<char>& reach,
                                  Sym var) const {
  // Must-written analysis: forward, intersection meet, one bit ("var has
  // been written on every path reaching here"). A read of the private
  // before its bit holds is genuinely maybe-uninitialized; if no such read
  // exists the def-use finding was a flow artifact.
  DataflowProblem p;
  p.direction = FlowDirection::kForward;
  p.meet = MeetOp::kIntersect;
  p.bits = 1;
  p.boundary = BitSet(1);  // nothing written at region entry
  p.transfer.resize(cfg.blocks.size());
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    BitSet gen(1);
    BitSet kill(1);
    for (const CfgEvent& e : cfg.events(b)) {
      if ((e.kind == CfgEventKind::kWrite || e.kind == CfgEventKind::kDecl) &&
          e.sym == var) {
        gen.set(0);
      }
    }
    p.transfer[b] = Transfer{std::move(gen), std::move(kill)};
  }
  const FlowResult result = solve_dataflow(cfg, p);

  bool found_read = false;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (reach[b] == 0) continue;
    bool written = result.in[b].test(0);
    for (const CfgEvent& e : cfg.events(b)) {
      if (e.kind == CfgEventKind::kRead && e.sym == var) {
        found_read = true;
        if (!written) return false;  // a maybe-uninit read really exists
      } else if ((e.kind == CfgEventKind::kWrite ||
                  e.kind == CfgEventKind::kDecl) &&
                 e.sym == var) {
        written = true;
      }
    }
  }
  return found_read;  // every read dominated by a write (or no read found:
                      // keep the finding — the walkers disagreed)
}

bool Analyzer::nowait_is_spurious(const Cfg& cfg,
                                  const std::vector<char>& reach,
                                  const FlowResult& taint,
                                  const FlowCandidate& c) const {
  int nowait_id = -1;
  for (std::size_t i = 0; i < cfg.nowaits.size(); ++i) {
    if (cfg.nowaits[i].line == c.construct_line) {
      nowait_id = static_cast<int>(i);
      break;
    }
  }
  if (nowait_id < 0) return false;
  // The finding stands only if some unguarded read of the variable is
  // reachable while the construct's taint is still live (no barrier on any
  // path in between). Reads inside critical/atomic bodies are ordered by
  // the lock acquire and do not count as unguarded dependences.
  bool found_any_read = false;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (reach[b] == 0) continue;
    BitSet state = taint.in[b];
    for (const CfgEvent& e : cfg.events(b)) {
      if (e.kind == CfgEventKind::kRead && e.sym == c.var) {
        found_any_read = true;
        if (!e.in_critical &&
            state.test(static_cast<std::size_t>(nowait_id))) {
          return false;  // a genuinely unordered dependent read
        }
      } else if (e.kind == CfgEventKind::kBarrier) {
        state.clear();
      } else if (e.kind == CfgEventKind::kNowaitExit) {
        state.set(static_cast<std::size_t>(e.id));
      }
    }
  }
  return found_any_read;
}

void Analyzer::report_lock_cycles() {
  if (lock_edges_.empty()) return;
  std::map<std::string, std::vector<std::pair<std::string, int>>> adj;
  std::set<std::string> nodes;
  for (const auto& [edge, line] : lock_edges_) {
    adj[edge.first].push_back({edge.second, line});
    nodes.insert(edge.first);
    nodes.insert(edge.second);
  }
  auto display = [](const std::string& name) {
    return name.empty() ? std::string("<anonymous>") : name;
  };
  // DFS with a gray-path stack; each cycle is canonicalized (rotated to its
  // smallest member) so A->B->A and B->A->B report once.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> path;
  std::set<std::string> reported;

  std::function<void(const std::string&)> dfs =
      [&](const std::string& u) {
        color[u] = 1;
        path.push_back(u);
        for (const auto& [v, line] : adj[u]) {
          if (color[v] == 1) {
            auto begin =
                std::find(path.begin(), path.end(), v);
            std::vector<std::string> cycle(begin, path.end());
            auto min_it = std::min_element(cycle.begin(), cycle.end());
            std::rotate(cycle.begin(), min_it, cycle.end());
            std::string key;
            std::string pretty;
            for (const std::string& n : cycle) {
              key += n + "\x1f";
              pretty += "'" + display(n) + "' -> ";
            }
            pretty += "'" + display(cycle.front()) + "'";
            if (reported.insert(key).second) {
              diag(kDiagLockOrderCycle, Severity::kWarning, line, "",
                   "critical sections nest in a cyclic lock order: " +
                       pretty +
                       "; two threads entering in opposite order deadlock "
                       "on the DSM locks");
            }
          } else if (color[v] == 0) {
            dfs(v);
          }
        }
        path.pop_back();
        color[u] = 2;
      };
  for (const std::string& n : nodes) {
    if (color[n] == 0) dfs(n);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared update-shape matcher (the decision layer lives in the analyzer; this
// is only the syntax).

std::optional<UpdateShape> match_scalar_update(const std::vector<Token>& tokens,
                                               TokenSpan span) {
  std::size_t n = span.end - span.begin;
  auto at = [&](std::size_t k) -> const Token& {
    return tokens[span.begin + k];
  };
  while (n > 0 && at(n - 1).is_punct(";")) --n;
  if (n < 2 || at(0).kind != TokKind::kIdent) return std::nullopt;

  // The contribution: tokens [begin, n), none of them a call.
  auto expr_from = [&](std::size_t begin) -> std::optional<TokenSpan> {
    if (begin >= n) return std::nullopt;
    for (std::size_t i = begin; i + 1 < n; ++i) {
      // Function calls in the contribution are not analyzable (paper §7).
      if (at(i).kind == TokKind::kIdent && at(i + 1).is_punct("(")) {
        return std::nullopt;
      }
    }
    return TokenSpan{span.begin + begin, span.begin + n};
  };

  UpdateShape p;
  p.var = span.begin;
  p.sym = at(0).sym;
  if (n == 2 && (at(1).is_punct("++") || at(1).is_punct("--"))) {
    p.combine_op = '+';
    p.apply_op = at(1).is("++") ? '+' : '-';
    return p;  // the contribution is the literal 1: `expr` stays empty
  }
  const Token& op = at(1);
  if (op.is("+=") || op.is("-=") || op.is("*=") || op.is("&=") ||
      op.is("|=") || op.is("^=")) {
    auto expr = expr_from(2);
    if (!expr) return std::nullopt;
    p.apply_op = op.text[0];
    p.combine_op = op.is("-=") ? '+' : p.apply_op;
    p.expr = *expr;
    return p;
  }
  if (op.is("=") && n >= 5 && at(2).text == at(0).text &&
      at(3).kind == TokKind::kPunct) {
    const Token& binop = at(3);
    if (binop.is("+") || binop.is("-") || binop.is("*") || binop.is("&") ||
        binop.is("|") || binop.is("^")) {
      auto expr = expr_from(4);
      if (!expr) return std::nullopt;
      p.apply_op = binop.text[0];
      p.combine_op = binop.is("-") ? '+' : p.apply_op;
      p.expr = *expr;
      return p;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Public surface

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

const char* to_string(Placement placement) {
  switch (placement) {
    case Placement::kReplicated: return "replicated";
    case Placement::kDsmScalar: return "dsm_scalar";
    case Placement::kDsmArray: return "dsm_array";
    case Placement::kThreadprivate: return "threadprivate";
  }
  return "unknown";
}

std::size_t sizeof_declared(const std::string& decl_type, int pointer_depth,
                            const std::vector<std::string>& array_dims) {
  if (pointer_depth > 0) return sizeof(void*);
  const auto tokens = lex(decl_type);
  if (!tokens.is_ok()) return 0;
  const std::vector<Token>& type_tokens = tokens.value();
  const std::size_t base =
      parse_decl_type(type_tokens, {0, type_tokens.size() - 1}).bytes;
  if (base == 0) return 0;
  std::size_t total = base;
  for (const std::string& dim : array_dims) {
    std::size_t v = 0;
    if (!parse_dim(dim, &v)) return 0;  // symbolic dimension: unknown
    total *= v;
  }
  return total;
}

std::size_t Analysis::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::size_t Analysis::vars_collective() const {
  std::size_t n = 0;
  for (const auto& [name, vc] : globals) {
    (void)name;
    if (vc.placement == Placement::kReplicated) ++n;
  }
  return n;
}

std::size_t Analysis::vars_dsm() const {
  std::size_t n = 0;
  for (const auto& [name, vc] : globals) {
    (void)name;
    if (vc.placement == Placement::kDsmScalar ||
        vc.placement == Placement::kDsmArray) {
      ++n;
    }
  }
  return n;
}

void resolve_diag_columns(const TranslationUnit& unit, Diagnostic* d) {
  if (d->line <= 0) return;
  // The lexer emits tokens in source order, so a line's tokens are one run.
  const std::vector<Token>& tokens = unit.tokens;
  auto first = std::lower_bound(
      tokens.begin(), tokens.end(), d->line,
      [](const Token& t, int line) { return t.line < line; });
  const Token* lead = nullptr;
  for (auto it = first; it != tokens.end() && it->line == d->line; ++it) {
    if (it->kind == TokKind::kEof || it->column <= 0) continue;
    if (lead == nullptr) lead = &*it;
    if (!d->var.empty() && it->kind == TokKind::kIdent && it->text == d->var) {
      d->column = it->column;
      d->end_column = it->column + static_cast<int>(it->text.size());
      return;
    }
  }
  if (lead != nullptr) {
    d->column = lead->column;
    d->end_column = lead->column + 1;
  }
}

std::string Analysis::to_text(const std::string& file) const {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << file << ":" << d.line;
    if (d.column > 0) out << ":" << d.column;
    out << ": " << to_string(d.severity) << " [" << d.code << "] " << d.message
        << "\n";
  }
  for (const auto& [name, vc] : globals) {
    out << file << ": global '" << name << "' -> " << to_string(vc.placement);
    if (vc.byte_size > 0) out << " (" << vc.byte_size << " B)";
    out << ": " << vc.reason << "\n";
  }
  for (const auto& [line, dec] : sync_sites) {
    out << file << ": " << (dec.is_atomic ? "atomic" : "critical")
        << " at line " << line << " -> "
        << (dec.collective ? "update-by-collective" : "DSM lock");
    if (!dec.var.empty()) out << " on '" << dec.var << "'";
    if (!dec.reason.empty()) out << " (" << dec.reason << ")";
    out << "\n";
  }
  out << file << ": " << count(Severity::kError) << " error(s), "
      << count(Severity::kWarning) << " warning(s), " << count(Severity::kNote)
      << " note(s)\n";
  return out.str();
}

std::string Analysis::to_json(const std::string& file) const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("file");
  w.value(file);
  w.key("summary");
  w.begin_object();
  w.key("errors");
  w.value(static_cast<std::int64_t>(count(Severity::kError)));
  w.key("warnings");
  w.value(static_cast<std::int64_t>(count(Severity::kWarning)));
  w.key("notes");
  w.value(static_cast<std::int64_t>(count(Severity::kNote)));
  w.key("vars_collective");
  w.value(static_cast<std::int64_t>(vars_collective()));
  w.key("vars_dsm");
  w.value(static_cast<std::int64_t>(vars_dsm()));
  w.key("suppressed");
  w.value(static_cast<std::int64_t>(suppressed.size()));
  w.end_object();
  w.key("diagnostics");
  w.begin_array();
  for (const Diagnostic& d : diagnostics) {
    w.begin_object();
    w.key("code");
    w.value(d.code);
    w.key("severity");
    w.value(to_string(d.severity));
    w.key("line");
    w.value(static_cast<std::int64_t>(d.line));
    w.key("column");
    w.value(static_cast<std::int64_t>(d.column));
    w.key("end_column");
    w.value(static_cast<std::int64_t>(d.end_column));
    w.key("var");
    w.value(d.var);
    w.key("message");
    w.value(d.message);
    w.end_object();
  }
  w.end_array();
  w.key("globals");
  w.begin_array();
  for (const auto& [name, vc] : globals) {
    w.begin_object();
    w.key("name");
    w.value(name);
    w.key("placement");
    w.value(to_string(vc.placement));
    w.key("type");
    w.value(vc.type);
    w.key("bytes");
    w.value(static_cast<std::int64_t>(vc.byte_size));
    w.key("line");
    w.value(static_cast<std::int64_t>(vc.line));
    w.key("reason");
    w.value(vc.reason);
    w.end_object();
  }
  w.end_array();
  w.key("sync_sites");
  w.begin_array();
  for (const auto& [line, dec] : sync_sites) {
    w.begin_object();
    w.key("line");
    w.value(static_cast<std::int64_t>(line));
    w.key("construct");
    w.value(dec.is_atomic ? "atomic" : "critical");
    w.key("collective");
    w.value(dec.collective);
    w.key("var");
    w.value(dec.var);
    w.key("reason");
    w.value(dec.reason);
    w.end_object();
  }
  w.end_array();
  w.key("regions");
  w.begin_array();
  for (const RegionSummary& r : regions) {
    w.begin_object();
    w.key("line");
    w.value(static_cast<std::int64_t>(r.line));
    w.key("blocks");
    w.value(static_cast<std::int64_t>(r.blocks));
    w.key("edges");
    w.value(static_cast<std::int64_t>(r.edges));
    w.key("loops");
    w.value(static_cast<std::int64_t>(r.loops));
    w.key("suppressed");
    w.value(static_cast<std::int64_t>(r.suppressed));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string Analysis::dataflow_report(const std::string& file) const {
  std::ostringstream out;
  out << file << ": dataflow: " << regions.size() << " region(s), "
      << suppressed.size() << " def-use finding(s) suppressed\n";
  for (const RegionSummary& r : regions) {
    out << file << ":" << r.line << ": region CFG: " << r.blocks
        << " blocks, " << r.edges << " edges, " << r.loops << " loop(s); "
        << r.suppressed << " suppressed\n";
  }
  for (const Diagnostic& d : suppressed) {
    out << file << ":" << d.line << ": suppressed [" << d.code << "] "
        << d.message << "\n";
  }
  return out.str();
}

std::string sarif_report(
    const std::vector<std::pair<std::string, Analysis>>& files) {
  // Collect the distinct rule ids (stable kDiag* codes) in first-seen order.
  std::vector<std::string> rule_ids;
  std::map<std::string, std::size_t> rule_index;
  for (const auto& [file, analysis] : files) {
    (void)file;
    for (const Diagnostic& d : analysis.diagnostics) {
      if (rule_index.try_emplace(d.code, rule_ids.size()).second) {
        rule_ids.push_back(d.code);
      }
    }
  }
  auto level_of = [](Severity s) {
    switch (s) {
      case Severity::kError: return "error";
      case Severity::kWarning: return "warning";
      case Severity::kNote: return "note";
    }
    return "none";
  };
  obs::JsonWriter w;
  w.begin_object();
  w.key("$schema");
  w.value("https://json.schemastore.org/sarif-2.1.0.json");
  w.key("version");
  w.value("2.1.0");
  w.key("runs");
  w.begin_array();
  w.begin_object();
  w.key("tool");
  w.begin_object();
  w.key("driver");
  w.begin_object();
  w.key("name");
  w.value("parade_lint");
  w.key("informationUri");
  w.value("docs/ANALYZER.md");
  w.key("rules");
  w.begin_array();
  for (const std::string& id : rule_ids) {
    w.begin_object();
    w.key("id");
    w.value(id);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  w.key("results");
  w.begin_array();
  for (const auto& [file, analysis] : files) {
    for (const Diagnostic& d : analysis.diagnostics) {
      w.begin_object();
      w.key("ruleId");
      w.value(d.code);
      w.key("ruleIndex");
      w.value(static_cast<std::int64_t>(rule_index.at(d.code)));
      w.key("level");
      w.value(level_of(d.severity));
      w.key("message");
      w.begin_object();
      w.key("text");
      w.value(d.message);
      w.end_object();
      w.key("locations");
      w.begin_array();
      w.begin_object();
      w.key("physicalLocation");
      w.begin_object();
      w.key("artifactLocation");
      w.begin_object();
      w.key("uri");
      w.value(file);
      w.end_object();
      w.key("region");
      w.begin_object();
      w.key("startLine");
      w.value(static_cast<std::int64_t>(d.line > 0 ? d.line : 1));
      if (d.column > 0) {
        w.key("startColumn");
        w.value(static_cast<std::int64_t>(d.column));
        // SARIF endColumn is exclusive, matching Diagnostic::end_column.
        w.key("endColumn");
        w.value(static_cast<std::int64_t>(
            d.end_column > d.column ? d.end_column : d.column + 1));
      }
      w.end_object();
      w.end_object();
      w.end_object();
      w.end_array();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  w.end_array();
  w.end_object();
  return w.str();
}

Analysis analyze(const TranslationUnit& unit, const AnalyzeOptions& options) {
  Analyzer analyzer(options);
  Analysis out = analyzer.run(unit);
  // Observability: translation decisions show up in the standard exports
  // (docs/OBSERVABILITY.md); the translator runs as node 0.
  auto& registry = obs::Registry::instance();
  registry.counter(0, "xlat.analyze.diagnostics")
      .add(static_cast<std::int64_t>(out.diagnostics.size()));
  registry.counter(0, "xlat.analyze.vars_collective")
      .add(static_cast<std::int64_t>(out.vars_collective()));
  registry.counter(0, "xlat.analyze.vars_dsm")
      .add(static_cast<std::int64_t>(out.vars_dsm()));
  return out;
}

Result<Analysis> analyze_source(const std::string& source,
                                const AnalyzeOptions& options) {
  auto tokens = lex(source);
  if (!tokens.is_ok()) return tokens.status();
  auto unit = parse(std::move(tokens).value());
  if (!unit.is_ok()) return unit.status();
  return analyze(unit.value(), options);
}

Result<std::size_t> parse_threshold_bytes(const std::string& text) {
  if (text.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "--threshold needs a value in bytes");
  }
  for (char c : text) {
    if (c < '0' || c > '9') {
      return make_error(ErrorCode::kInvalidArgument,
                        "invalid --threshold value '" + text +
                            "' (expected a positive integer byte count)");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || v == 0 ||
      v > static_cast<unsigned long long>(~std::size_t{0})) {
    return make_error(ErrorCode::kInvalidArgument,
                      "invalid --threshold value '" + text +
                          "' (must be a positive byte count)");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace parade::translator

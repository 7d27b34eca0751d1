#include "translator/analyze.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "translator/cfg.hpp"
#include "translator/dataflow.hpp"
#include "translator/interfere.hpp"
#include "translator/parser.hpp"
#include "translator/token.hpp"

namespace parade::translator {
namespace {

// ---------------------------------------------------------------------------
// Declared-size computation

const std::unordered_map<std::string, std::size_t>& typedef_sizes() {
  static const std::unordered_map<std::string, std::size_t> sizes = {
      {"size_t", 8},   {"ssize_t", 8},  {"ptrdiff_t", 8}, {"intptr_t", 8},
      {"uintptr_t", 8}, {"int8_t", 1},  {"uint8_t", 1},   {"int16_t", 2},
      {"uint16_t", 2}, {"int32_t", 4},  {"uint32_t", 4},  {"int64_t", 8},
      {"uint64_t", 8}, {"wchar_t", 4}};
  return sizes;
}

/// Size of the base type text ("static unsigned long" -> 8); 0 if unknown.
std::size_t base_type_size(const std::string& decl_type) {
  const std::vector<std::string_view> words = type_words(decl_type);
  if (words.empty()) return 0;
  int longs = 0;
  bool has_double = false, has_float = false, has_char = false;
  bool has_short = false, has_int = false, has_sign = false, has_bool = false;
  bool has_aggregate = false, has_enum = false;
  for (const std::string_view w : words) {
    if (text_is(w, "long")) ++longs;
    else if (text_is(w, "double")) has_double = true;
    else if (text_is(w, "float")) has_float = true;
    else if (text_is(w, "char")) has_char = true;
    else if (text_is(w, "short")) has_short = true;
    else if (text_is(w, "int")) has_int = true;
    else if (text_is(w, "signed") || text_is(w, "unsigned")) has_sign = true;
    else if (text_is(w, "_Bool") || text_is(w, "bool")) has_bool = true;
    else if (text_is(w, "struct") || text_is(w, "union")) has_aggregate = true;
    else if (text_is(w, "enum")) has_enum = true;
  }
  if (has_aggregate) return 0;  // layout not visible to the translator
  if (has_enum) return 4;
  if (has_double) return longs > 0 ? 16 : 8;
  if (has_float) return 4;
  if (has_char) return 1;
  if (has_short) return 2;
  if (longs >= 2) return 8;
  if (longs == 1) return 8;
  if (has_int || has_sign) return 4;
  if (has_bool) return 1;
  if (words.size() == 1) {
    auto it = typedef_sizes().find(std::string(words[0]));
    if (it != typedef_sizes().end()) return it->second;
  }
  return 0;
}

/// Strict positive-integer-literal parse for array dimensions.
bool parse_dim(const std::string& text, std::size_t* out) {
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
  std::string type;
  int pointer_depth = 0;
  bool is_array = false;
  bool threadprivate = false;
  bool file_scope = false;
  std::size_t byte_size = 0;  // 0 = unknown
  int line = 0;
};

class Analyzer {
 public:
  explicit Analyzer(const AnalyzeOptions& options) : options_(options) {}

  Analysis run(const TranslationUnit& unit);

 private:
  struct Env {
    bool in_parallel = false;
    bool race_guarded = false;      // critical/atomic/single/master/ordered
    bool placement_managed = false; // single/atomic/collective-critical
    int divergence = 0;             // conditional / worksharing nesting
    int region_line = 0;
    std::size_t region_depth = 0;   // scopes_.size() at region entry
    bool default_none = false;
    std::map<std::string, Sharing> attrs;        // explicit clause attributes
    std::map<std::string, std::string> red_ops;  // reduction var -> C operator
    std::set<std::string>* race_sink = nullptr;  // sections: defer race checks
    int region_id = -1;   // index into regions_ (-1 outside parallel)
  };

  // --- symbol table ---
  void declare(const std::string& name, SymbolInfo info) {
    scopes_.back()[name] = std::move(info);
  }
  const SymbolInfo* lookup(const std::string& name, std::size_t* depth) const {
    for (std::size_t i = scopes_.size(); i-- > 0;) {
      auto it = scopes_[i].find(name);
      if (it != scopes_[i].end()) {
        if (depth != nullptr) *depth = i;
        return &it->second;
      }
    }
    return nullptr;
  }

  void diag(const char* code, Severity severity, int line,
            const std::string& var, std::string message) {
    Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.line = line;
    d.var = var;
    d.message = std::move(message);
    resolve_columns(&d);
    out_.diagnostics.push_back(std::move(d));
  }

  void resolve_columns(Diagnostic* d) const {
    if (unit_ != nullptr) resolve_diag_columns(*unit_, d);
  }

  Sharing sharing_of(const std::string& name, std::size_t depth,
                     const SymbolInfo& sym, const Env& env, int line);

  void process_text(const Expr& expr, int line, const Env& env);
  void process_read(const std::string& name, int line, const Env& env);
  void process_write(const AccessScan::Write& w, const Expr& expr, int line,
                     const Env& env);

  /// Pins `name` to the DSM pool; the first unmanaged write's reason wins.
  void mark_dsm(const std::string& name, const std::string& why) {
    dsm_marks_.try_emplace(name, why);
  }

  // --- walking ---
  void walk_stmt(const Stmt& stmt, Env& env);
  void walk_block(const Stmt& block, Env& env);
  void walk_pragma(const Stmt& stmt, Env& env);
  void register_decl(const Stmt& decl, const Env& env, bool file_scope);
  void handle_parallel(const Stmt& stmt, Env env);
  void handle_worksharing_for(const Directive& d, const Stmt& body, Env env);
  void handle_sections(const Directive& d, const Stmt& body, Env env);
  void handle_sync(const Stmt& stmt, Env env, bool is_atomic);
  std::vector<std::string> add_clause_attrs(const Clauses& c, Env* env);

  void collect_writes_rec(const Stmt& stmt, std::set<std::string>* out) const;
  void collect_reads_rec(const Stmt& stmt, std::set<std::string>* out) const;

  void register_params(const std::vector<Param>& params);

  // --- flow-sensitive pass (CFG/dataflow over each parallel region) ---
  /// One parallel region recorded during the walk; the CFG is built over the
  /// whole pragma statement so worksharing structure survives.
  struct RegionRec {
    const Stmt* construct = nullptr;
    int line = 0;
    std::set<std::string> privatelike;  // names not shared inside the region
  };
  /// A def-use diagnostic the flow pass may retire.
  struct FlowCandidate {
    enum class Kind { kUninit, kRace, kNowait };
    Kind kind = Kind::kUninit;
    std::size_t diag_index = 0;
    std::string var;
    int line = 0;            // diagnostic line
    int construct_line = 0;  // nowait construct line (kNowait only)
    int region_id = -1;
  };
  void run_flow_pass();
  bool uninit_is_spurious(const Cfg& cfg, const std::vector<char>& reach,
                          const std::string& var) const;
  bool nowait_is_spurious(const Cfg& cfg, const std::vector<char>& reach,
                          const FlowResult& taint,
                          const FlowCandidate& c) const;
  bool shared_in_region(const std::string& name, const RegionRec& rec,
                        const Cfg& cfg) const;
  void report_lock_cycles();

  AnalyzeOptions options_;
  Analysis out_;
  const TranslationUnit* unit_ = nullptr;  // set for the duration of run()
  std::vector<std::map<std::string, SymbolInfo>> scopes_;
  std::set<std::string> uninit_;  // privates not yet written in the region
  std::map<std::string, std::string> dsm_marks_;  // name -> why pinned
  std::set<std::string> default_none_reported_;  // "line:name"
  std::vector<RegionRec> regions_;
  std::vector<FlowCandidate> candidates_;
  // Lock-order graph over nested named criticals (TU-wide): edge outer->inner
  // with the line of the inner critical that closed it.
  std::vector<std::string> lock_stack_;
  std::map<std::pair<std::string, std::string>, int> lock_edges_;
};

Sharing Analyzer::sharing_of(const std::string& name, std::size_t depth,
                             const SymbolInfo& sym, const Env& env, int line) {
  if (sym.threadprivate) return Sharing::kThreadprivate;
  if (!env.in_parallel) return Sharing::kShared;
  if (depth >= env.region_depth) return Sharing::kLocal;
  auto it = env.attrs.find(name);
  if (it != env.attrs.end()) return it->second;
  if (env.default_none) {
    const std::string key = std::to_string(env.region_line) + ":" + name;
    if (default_none_reported_.insert(key).second) {
      diag(kDiagDefaultNoneMissing, Severity::kError, line, name,
           "'" + name + "' is referenced in a default(none) region (line " +
               std::to_string(env.region_line) +
               ") but has no explicit data-sharing attribute");
    }
  }
  return Sharing::kShared;
}

void Analyzer::process_read(const std::string& name, int line, const Env& env) {
  std::size_t depth = 0;
  const SymbolInfo* sym = lookup(name, &depth);
  if (sym == nullptr) return;
  if (!env.in_parallel) return;
  const Sharing sh = sharing_of(name, depth, *sym, env, line);
  if ((sh == Sharing::kPrivate || sh == Sharing::kLastprivate) &&
      uninit_.count(name) > 0) {
    diag(kDiagPrivateUninitRead, Severity::kWarning, line, name,
         "private '" + name + "' is read before any write in the parallel " +
             "region at line " + std::to_string(env.region_line) +
             " (private copies start uninitialized)");
    candidates_.push_back(FlowCandidate{FlowCandidate::Kind::kUninit,
                                        out_.diagnostics.size() - 1, name,
                                        line, 0, env.region_id});
    uninit_.erase(name);
  }
}

void Analyzer::process_write(const AccessScan::Write& w, const Expr& expr,
                             int line, const Env& env) {
  std::size_t depth = 0;
  const SymbolInfo* sym = lookup(w.name, &depth);
  if (sym == nullptr) return;
  uninit_.erase(w.name);
  if (!env.in_parallel) return;
  if (w.deref) return;  // store through a pointer: target unknown statically
  const Sharing sh = sharing_of(w.name, depth, *sym, env, line);

  if (w.array || sym->is_array) return;  // per-element stores: not flagged

  if (sh == Sharing::kReduction) {
    const std::string& op = env.red_ops.at(w.name);
    // Logical forms aren't update-shaped.
    if (!text_is(op, "&&") && !text_is(op, "||")) {
      auto m = match_scalar_update(unit_->tokens, expr.span);
      const bool compatible =
          m.has_value() && m->var == w.name &&
          (m->apply_op == op ||
           (text_is(op, "+") && text_is(m->apply_op, "-")));
      if (!compatible) {
        diag(kDiagReductionMisuse, Severity::kWarning, line, w.name,
             "'" + w.name + "' carries a reduction(" + op +
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
      env.race_sink->insert(w.name);
    } else {
      diag(kDiagRaceSharedWrite, Severity::kError, line, w.name,
           "unsynchronized write to shared '" + w.name +
               "' in the parallel region at line " +
               std::to_string(env.region_line) +
               "; no atomic/critical/reduction guards this store");
      candidates_.push_back(FlowCandidate{FlowCandidate::Kind::kRace,
                                          out_.diagnostics.size() - 1, w.name,
                                          line, 0, env.region_id});
    }
  }
  if (!env.placement_managed && sym->file_scope && !w.member &&
      sym->pointer_depth == 0 && !sym->threadprivate) {
    mark_dsm(w.name,
             "written by an unmanaged statement in a parallel context "
             "(line " + std::to_string(line) + "); HLRC page consistency "
             "must propagate it");
  }
}

void Analyzer::process_text(const Expr& expr, int line, const Env& env) {
  const AccessScan& acc = expr.access();
  // Reads first: in `x = x + 1` the right-hand read happens before the store.
  for (const std::string& name : acc.reads) process_read(name, line, env);
  for (const auto& w : acc.writes) process_write(w, expr, line, env);
}

std::vector<std::string> Analyzer::add_clause_attrs(const Clauses& c,
                                                    Env* env) {
  std::vector<std::string> uninit_added;
  for (const auto& v : c.privates) {
    env->attrs[v] = Sharing::kPrivate;
    if (uninit_.insert(v).second) uninit_added.push_back(v);
  }
  for (const auto& v : c.firstprivate) env->attrs[v] = Sharing::kFirstprivate;
  for (const auto& v : c.lastprivate) {
    env->attrs[v] = Sharing::kLastprivate;
    if (uninit_.insert(v).second) uninit_added.push_back(v);
  }
  for (const auto& [op, v] : c.reductions) {
    env->attrs[v] = Sharing::kReduction;
    env->red_ops[v] = reduction_operator(op);
  }
  for (const auto& v : c.shared) env->attrs[v] = Sharing::kShared;
  return uninit_added;
}

void Analyzer::register_decl(const Stmt& decl, const Env& env,
                             bool file_scope) {
  for (const Declarator& d : decl.declarators) {
    process_text(d.init, decl.line, env);
    std::vector<std::string> dims;
    for (const Expr& dim : d.array_dims) {
      process_text(dim, decl.line, env);
      dims.push_back(dim.text);
    }
    if (d.is_function) continue;
    SymbolInfo info;
    info.type = decl.decl_type.text;
    info.pointer_depth = d.pointer_depth;
    info.is_array = !d.array_dims.empty();
    info.file_scope = file_scope;
    info.byte_size =
        sizeof_declared(decl.decl_type.text, d.pointer_depth, dims);
    info.line = decl.line;
    declare(d.name, info);
  }
}

void Analyzer::collect_writes_rec(const Stmt& stmt,
                                  std::set<std::string>* out) const {
  switch (stmt.kind) {
    case StmtKind::kRaw: {
      for (const auto& w : stmt.text.access().writes) {
        if (!w.deref) out->insert(w.name);
      }
      return;
    }
    case StmtKind::kFor:
      for (const auto& w : stmt.for_header.init_text.access().writes) {
        out->insert(w.name);
      }
      for (const auto& w : stmt.for_header.incr_text.access().writes) {
        out->insert(w.name);
      }
      break;
    default:
      break;
  }
  for (const StmtPtr& child : stmt.children) {
    if (child) collect_writes_rec(*child, out);
  }
}

void Analyzer::collect_reads_rec(const Stmt& stmt,
                                 std::set<std::string>* out) const {
  auto add_text = [&](const Expr& expr) {
    for (const std::string& r : expr.access().reads) out->insert(r);
  };
  switch (stmt.kind) {
    case StmtKind::kRaw:
      add_text(stmt.text);
      return;
    case StmtKind::kDecl:
      for (const Declarator& d : stmt.declarators) add_text(d.init);
      return;
    case StmtKind::kFor:
      add_text(stmt.for_header.init_text);
      add_text(stmt.for_header.cond_text);
      add_text(stmt.for_header.incr_text);
      break;
    case StmtKind::kIf:
    case StmtKind::kWhile:
    case StmtKind::kDoWhile:
    case StmtKind::kSwitch:
      add_text(stmt.cond);
      break;
    default:
      break;
  }
  for (const StmtPtr& child : stmt.children) {
    if (child) collect_reads_rec(*child, out);
  }
}

void Analyzer::walk_block(const Stmt& block, Env& env) {
  scopes_.emplace_back();
  struct Pending {
    std::set<std::string> writes;
    int line;
  };
  std::vector<Pending> pending;  // nowait constructs awaiting a barrier
  for (const StmtPtr& child : block.children) {
    // Any read of a name written by a still-unbarriered nowait construct is
    // a dependence the dropped barrier no longer orders.
    if (env.in_parallel && !pending.empty()) {
      std::set<std::string> reads;
      collect_reads_rec(*child, &reads);
      for (auto& p : pending) {
        std::vector<std::string> hit;
        for (const std::string& name : p.writes) {
          if (reads.count(name) > 0) hit.push_back(name);
        }
        for (const std::string& name : hit) {
          p.writes.erase(name);
          diag(kDiagNowaitDependentRead, Severity::kWarning, child->line, name,
               "'" + name + "' is read here but written by the nowait "
               "worksharing construct at line " + std::to_string(p.line) +
               " with no intervening barrier");
          candidates_.push_back(FlowCandidate{
              FlowCandidate::Kind::kNowait, out_.diagnostics.size() - 1, name,
              child->line, p.line, env.region_id});
        }
      }
    }

    if (child->kind == StmtKind::kDecl) {
      register_decl(*child, env, /*file_scope=*/false);
    } else {
      walk_stmt(*child, env);
    }

    if (env.in_parallel && child->kind == StmtKind::kPragma) {
      const Directive& d = child->directive;
      const bool worksharing = d.kind == DirectiveKind::kFor ||
                               d.kind == DirectiveKind::kSections ||
                               d.kind == DirectiveKind::kSingle;
      if (d.kind == DirectiveKind::kBarrier) {
        pending.clear();
      } else if (worksharing) {
        if (d.clauses.nowait) {
          // Clause-privates of the construct die at its end; only data
          // visible to the team can carry the dependence.
          std::set<std::string> construct_private;
          for (const auto& v : d.clauses.privates) construct_private.insert(v);
          for (const auto& v : d.clauses.firstprivate) {
            construct_private.insert(v);
          }
          for (const auto& v : d.clauses.lastprivate) {
            construct_private.insert(v);
          }
          for (const auto& [op, v] : d.clauses.reductions) {
            (void)op;
            construct_private.insert(v);
          }
          Pending p;
          p.line = d.line;
          if (!child->children.empty()) {
            const Stmt& construct_body = *child->children.front();
            if (construct_body.kind == StmtKind::kFor &&
                construct_body.for_header.canonical) {
              // The worksharing loop variable is implicitly private.
              construct_private.insert(construct_body.for_header.loop_var);
            }
            std::set<std::string> written;
            collect_writes_rec(construct_body, &written);
            for (const std::string& name : written) {
              if (construct_private.count(name) > 0) continue;
              std::size_t depth = 0;
              const SymbolInfo* sym = lookup(name, &depth);
              if (sym == nullptr) continue;
              if (sharing_of(name, depth, *sym, env, d.line) ==
                  Sharing::kShared) {
                p.writes.insert(name);
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
  scopes_.pop_back();
}

void Analyzer::handle_worksharing_for(const Directive& d, const Stmt& body,
                                      Env env) {
  const std::vector<std::string> uninit_added =
      add_clause_attrs(d.clauses, &env);
  if (body.kind != StmtKind::kFor) {
    // CodeGen rejects this; still scan for diagnostics.
    walk_stmt(body, env);
    return;
  }
  const ForHeader& h = body.for_header;
  scopes_.emplace_back();
  if (h.canonical) {
    process_text(h.lower, body.line, env);
    process_text(h.upper, body.line, env);
    process_text(h.step, body.line, env);
    if (!h.var_decl_type.empty()) {
      SymbolInfo info;
      info.type = h.var_decl_type;
      info.byte_size = sizeof_declared(h.var_decl_type, 0, {});
      info.line = body.line;
      declare(h.loop_var, info);
    } else {
      // The worksharing loop variable is private per the OpenMP rules and is
      // initialized by the scheduler, never uninitialized.
      env.attrs[h.loop_var] = Sharing::kPrivate;
      uninit_.erase(h.loop_var);
    }
  } else {
    process_text(h.init_text, body.line, env);
    process_text(h.cond_text, body.line, env);
    process_text(h.incr_text, body.line, env);
  }
  ++env.divergence;  // a barrier inside a worksharing body is divergent
  if (!body.children.empty()) walk_stmt(*body.children.front(), env);
  scopes_.pop_back();
  for (const std::string& name : uninit_added) uninit_.erase(name);
}

void Analyzer::handle_sections(const Directive& d, const Stmt& body, Env env) {
  const std::vector<std::string> uninit_added =
      add_clause_attrs(d.clauses, &env);
  std::vector<const Stmt*> sections;
  if (body.kind == StmtKind::kBlock) {
    for (const StmtPtr& child : body.children) {
      if (child->kind == StmtKind::kPragma &&
          child->directive.kind == DirectiveKind::kSection) {
        if (!child->children.empty()) {
          sections.push_back(child->children.front().get());
        }
      } else if (child->kind != StmtKind::kEmpty) {
        sections.push_back(child.get());
      }
    }
  } else {
    sections.push_back(&body);
  }
  // Each section runs on one thread: a write in a single section is not a
  // race by itself, but the same shared name written from two sections is.
  std::vector<std::set<std::string>> writes(sections.size());
  for (std::size_t i = 0; i < sections.size(); ++i) {
    Env senv = env;
    ++senv.divergence;
    senv.race_sink = &writes[i];
    scopes_.emplace_back();
    walk_stmt(*sections[i], senv);
    scopes_.pop_back();
  }
  std::map<std::string, int> writers;
  for (const auto& set : writes) {
    for (const std::string& name : set) ++writers[name];
  }
  for (const auto& [name, count] : writers) {
    if (count >= 2) {
      diag(kDiagRaceSharedWrite, Severity::kError, d.line, name,
           "shared '" + name + "' is written by " + std::to_string(count) +
               " different sections of the sections construct at line " +
               std::to_string(d.line) + " (sections run concurrently)");
    }
  }
  for (const std::string& name : uninit_added) uninit_.erase(name);
}

void Analyzer::handle_sync(const Stmt& stmt, Env env, bool is_atomic) {
  const Directive& d = stmt.directive;
  const Stmt* inner =
      stmt.children.empty() ? nullptr : stmt.children.front().get();
  if (inner != nullptr && inner->kind == StmtKind::kBlock &&
      inner->children.size() == 1) {
    inner = inner->children.front().get();
  }

  SyncDecision dec;
  dec.line = d.line;
  dec.is_atomic = is_atomic;
  std::string reason;
  std::optional<UpdateShape> shape;
  if (inner == nullptr || inner->kind != StmtKind::kRaw) {
    reason = "body is not a single expression statement";
  } else if (!(shape = match_scalar_update(unit_->tokens, inner->text.span))) {
    reason = inner->text.access().has_call
                 ? "update expression calls a function"
                 : "statement is not a scalar update "
                   "(x op= expr, x++, x = x op expr)";
  } else {
    dec.var = shape->var;
    std::size_t depth = 0;
    const SymbolInfo* sym = lookup(shape->var, &depth);
    if (sym == nullptr) {
      reason = "no visible declaration for '" + shape->var + "'";
    } else if (sym->is_array || sym->pointer_depth > 0) {
      reason = "'" + shape->var + "' is not a scalar";
    } else {
      const Sharing sh = sharing_of(shape->var, depth, *sym, env, d.line);
      if (sh == Sharing::kThreadprivate) {
        reason = "'" + shape->var + "' is threadprivate; per-thread updates "
                 "need no collective";
      } else if (sh != Sharing::kShared) {
        reason = "'" + shape->var + "' is not shared in the enclosing "
                 "parallel region; a collective would merge private copies";
      } else if (sym->byte_size == 0) {
        reason = "declared type '" + sym->type + "' has no statically known "
                 "size; page consistency is the safe fallback";
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
  out_.sync_sites[d.line] = dec;

  const char* construct = is_atomic ? "atomic" : "critical";
  if (is_atomic && !shape.has_value()) {
    diag(kDiagAtomicNotUpdate, Severity::kError, d.line, "",
         "atomic statement is not a supported update "
         "(x op= expr, x++, x = x op expr): " + reason);
  } else if (!dec.collective) {
    diag(kDiagSyncDsmFallback, Severity::kNote, d.line, dec.var,
         std::string(construct) + " at line " + std::to_string(d.line) +
             " maps to the DSM lock path, not update-by-collective: " +
             reason);
  }

  if (inner != nullptr) {
    Env benv = env;
    benv.race_guarded = true;
    benv.placement_managed = dec.collective;
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
      walk_stmt(*stmt.children.front(), benv);
      lock_stack_.pop_back();
    } else {
      walk_stmt(*stmt.children.front(), benv);
    }
  }
}

void Analyzer::handle_parallel(const Stmt& stmt, Env env) {
  const Directive& d = stmt.directive;
  // firstprivate snapshots read the outer values before the fork.
  for (const std::string& v : d.clauses.firstprivate) {
    process_read(v, d.line, env);
  }
  const std::set<std::string> saved_uninit = std::move(uninit_);
  uninit_.clear();

  Env penv;
  penv.in_parallel = true;
  penv.region_line = d.line;
  penv.region_depth = scopes_.size();
  penv.default_none = d.clauses.has_default && !d.clauses.default_shared;
  penv.divergence = 0;
  add_clause_attrs(d.clauses, &penv);

  if (stmt.children.empty()) {
    uninit_ = saved_uninit;
    return;
  }
  const Stmt& body = *stmt.children.front();
  penv.region_id = static_cast<int>(regions_.size());
  {
    RegionRec rec;
    rec.construct = &stmt;
    rec.line = d.line;
    for (const auto& [name, sh] : penv.attrs) {
      if (sh != Sharing::kShared) rec.privatelike.insert(name);
    }
    if (body.kind == StmtKind::kFor && body.for_header.canonical) {
      rec.privatelike.insert(body.for_header.loop_var);
    }
    regions_.push_back(std::move(rec));
  }
  switch (d.kind) {
    case DirectiveKind::kParallel:
      walk_stmt(body, penv);
      break;
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
  uninit_ = saved_uninit;
}

void Analyzer::walk_pragma(const Stmt& stmt, Env& env) {
  const Directive& d = stmt.directive;
  switch (d.kind) {
    case DirectiveKind::kParallel:
    case DirectiveKind::kParallelFor:
    case DirectiveKind::kParallelSections:
      handle_parallel(stmt, env);
      return;
    case DirectiveKind::kFor:
      if (!stmt.children.empty()) {
        handle_worksharing_for(d, *stmt.children.front(), env);
      }
      return;
    case DirectiveKind::kSections:
      if (!stmt.children.empty()) {
        handle_sections(d, *stmt.children.front(), env);
      }
      return;
    case DirectiveKind::kSection:
      if (!stmt.children.empty()) walk_stmt(*stmt.children.front(), env);
      return;
    case DirectiveKind::kSingle: {
      if (stmt.children.empty()) return;
      Env senv = env;
      senv.race_guarded = true;
      senv.placement_managed = true;  // results travel in the broadcast
      senv.race_sink = nullptr;
      walk_stmt(*stmt.children.front(), senv);
      return;
    }
    case DirectiveKind::kMaster:
    case DirectiveKind::kOrdered: {
      if (stmt.children.empty()) return;
      Env menv = env;
      menv.race_guarded = true;  // one thread executes
      menv.race_sink = nullptr;
      // placement stays unmanaged: nothing propagates these stores except
      // the DSM, so the written globals must live on pages.
      walk_stmt(*stmt.children.front(), menv);
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
      process_text(stmt.text, stmt.line, env);
      return;
    case StmtKind::kDecl:
      // Reached for decls outside block child lists (e.g. loop bodies that
      // are bare declarations); register into the current scope.
      register_decl(stmt, env, /*file_scope=*/false);
      return;
    case StmtKind::kFor: {
      const ForHeader& h = stmt.for_header;
      scopes_.emplace_back();
      if (h.canonical && !h.var_decl_type.empty()) {
        SymbolInfo info;
        info.type = h.var_decl_type;
        info.byte_size = sizeof_declared(h.var_decl_type, 0, {});
        info.line = stmt.line;
        declare(h.loop_var, info);
      }
      process_text(h.init_text, stmt.line, env);
      process_text(h.cond_text, stmt.line, env);
      process_text(h.incr_text, stmt.line, env);
      Env benv = env;
      ++benv.divergence;
      if (!stmt.children.empty()) walk_stmt(*stmt.children.front(), benv);
      scopes_.pop_back();
      return;
    }
    case StmtKind::kIf:
    case StmtKind::kWhile:
    case StmtKind::kDoWhile:
    case StmtKind::kSwitch: {
      process_text(stmt.cond, stmt.line, env);
      Env benv = env;
      ++benv.divergence;
      for (const StmtPtr& child : stmt.children) {
        if (child) walk_stmt(*child, benv);
      }
      return;
    }
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
    info.type = p.type;
    info.pointer_depth = p.pointer_depth;
    info.is_array = p.is_array;
    info.byte_size = p.pointer_depth > 0 || p.is_array ? sizeof(void*)
                                                       : base_type_size(p.type);
    declare(p.name, info);
  }
}

Analysis Analyzer::run(const TranslationUnit& unit) {
  unit_ = &unit;
  scopes_.emplace_back();  // file scope

  // threadprivate(list) pragmas may follow the declaration they mark.
  std::set<std::string> threadprivate_names;
  for (const TopItem& item : unit.items) {
    if (item.kind == TopItem::Kind::kPragma &&
        item.stmt->directive.kind == DirectiveKind::kThreadprivate) {
      for (const std::string& name : item.stmt->directive.clauses.flush_list) {
        threadprivate_names.insert(name);
      }
    }
  }

  Env file_env;
  for (const TopItem& item : unit.items) {
    if (item.kind != TopItem::Kind::kDecl) continue;
    const Stmt& decl = *item.stmt;
    register_decl(decl, file_env, /*file_scope=*/true);
    for (const Declarator& d : decl.declarators) {
      if (d.is_function) continue;
      SymbolInfo& info = scopes_.front()[d.name];
      info.threadprivate = threadprivate_names.count(d.name) > 0;
      VarClass vc;
      vc.type = decl.decl_type.text;
      vc.byte_size = info.byte_size;
      vc.line = decl.line;
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
      out_.globals[d.name] = std::move(vc);
    }
  }

  for (const TopItem& item : unit.items) {
    if (item.kind != TopItem::Kind::kFunction) continue;
    scopes_.emplace_back();
    register_params(item.function.param_list);
    Env env;
    if (item.function.body) walk_stmt(*item.function.body, env);
    scopes_.resize(1);
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
    auto it = dsm_marks_.find(name);
    if (it != dsm_marks_.end()) {
      vc.placement = Placement::kDsmScalar;
      vc.reason = it->second;
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
  return out_;
}

void Analyzer::run_flow_pass() {
  std::set<std::size_t> drop;
  std::set<int> unmatched_lines;            // dedup across nested-region CFGs
  std::set<std::pair<int, std::string>> stale_reported;
  for (std::size_t ri = 0; ri < regions_.size(); ++ri) {
    const RegionRec& rec = regions_[ri];
    const Cfg cfg = build_cfg(*rec.construct, unit_->tokens);
    RegionSummary rs;
    rs.line = rec.line;
    rs.blocks = cfg.blocks.size();
    rs.edges = cfg.edge_count();
    rs.loops = cfg.loops.size();
    const std::vector<char> reach = cfg.reachable();

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
        for (const CfgEvent& e : cfg.blocks[b].events) {
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
            for (const CfgEvent& e : cfg.blocks[b].events) {
              if (e.kind == CfgEventKind::kWrite && e.name == c.var &&
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
      std::set<std::string> written;
      for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (!cfg.block_in_loop(static_cast<int>(b), static_cast<int>(li))) {
          continue;
        }
        for (const CfgEvent& e : cfg.blocks[b].events) {
          if (e.kind == CfgEventKind::kBarrier ||
              e.kind == CfgEventKind::kSync) {
            has_sync = true;
          } else if (e.kind == CfgEventKind::kWrite) {
            written.insert(e.name);
          }
        }
      }
      if (has_sync) continue;
      const int head = cfg.loops[li].head;
      if (head < 0) continue;
      for (const CfgEvent& e :
           cfg.blocks[static_cast<std::size_t>(head)].events) {
        if (e.kind != CfgEventKind::kRead || !e.loop_cond) continue;
        if (!shared_in_region(e.name, rec, cfg)) continue;
        if (written.count(e.name) > 0) continue;
        if (!stale_reported.insert({cfg.loops[li].line, e.name}).second) {
          continue;
        }
        diag(kDiagStaleReadLoop, Severity::kWarning, cfg.loops[li].line,
             e.name,
             "loop condition re-reads shared '" + e.name +
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

bool Analyzer::shared_in_region(const std::string& name, const RegionRec& rec,
                                const Cfg& cfg) const {
  auto it = out_.globals.find(name);
  if (it == out_.globals.end()) return false;
  if (it->second.placement == Placement::kThreadprivate) return false;
  return rec.privatelike.count(name) == 0 && cfg.locals.count(name) == 0;
}

bool Analyzer::uninit_is_spurious(const Cfg& cfg,
                                  const std::vector<char>& reach,
                                  const std::string& var) const {
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
    for (const CfgEvent& e : cfg.blocks[b].events) {
      if ((e.kind == CfgEventKind::kWrite || e.kind == CfgEventKind::kDecl) &&
          e.name == var) {
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
    for (const CfgEvent& e : cfg.blocks[b].events) {
      if (e.kind == CfgEventKind::kRead && e.name == var) {
        found_read = true;
        if (!written) return false;  // a maybe-uninit read really exists
      } else if ((e.kind == CfgEventKind::kWrite ||
                  e.kind == CfgEventKind::kDecl) &&
                 e.name == var) {
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
    for (const CfgEvent& e : cfg.blocks[b].events) {
      if (e.kind == CfgEventKind::kRead && e.name == c.var) {
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
  const std::string var = at(0).text;

  // The contribution: tokens [begin, n), spelled joined by single spaces.
  auto expr_from = [&](std::size_t begin) -> std::optional<Expr> {
    Expr expr;
    expr.span = {span.begin + begin, span.begin + n};
    for (std::size_t i = begin; i < n; ++i) {
      // Function calls in the contribution are not analyzable (paper §7).
      if (at(i).kind == TokKind::kIdent && i + 1 < n &&
          at(i + 1).is_punct("(")) {
        return std::nullopt;
      }
      if (!expr.text.empty()) expr.text += ' ';
      expr.text += at(i).text;
    }
    if (expr.text.empty()) return std::nullopt;
    return expr;
  };

  UpdateShape p;
  p.var = var;
  if (n == 2 && (at(1).is_punct("++") || at(1).is_punct("--"))) {
    p.combine_op = "+";
    p.apply_op = at(1).is("++") ? "+" : "-";
    p.expr.text = "1";
    return p;
  }
  const Token& op = at(1);
  if (op.is("+=") || op.is("-=") || op.is("*=") || op.is("&=") ||
      op.is("|=") || op.is("^=")) {
    auto expr = expr_from(2);
    if (!expr) return std::nullopt;
    p.apply_op = op.text.substr(0, 1);
    p.combine_op = op.is("-=") ? "+" : p.apply_op;
    p.expr = std::move(*expr);
    return p;
  }
  if (op.is("=") && n >= 5 && at(2).text == var &&
      at(3).kind == TokKind::kPunct) {
    const Token& binop = at(3);
    if (binop.is("+") || binop.is("-") || binop.is("*") || binop.is("&") ||
        binop.is("|") || binop.is("^")) {
      auto expr = expr_from(4);
      if (!expr) return std::nullopt;
      p.apply_op = binop.text;
      p.combine_op = binop.is("-") ? "+" : binop.text;
      p.expr = std::move(*expr);
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
  const std::size_t base = base_type_size(decl_type);
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

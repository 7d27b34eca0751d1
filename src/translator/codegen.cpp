#include "translator/codegen.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "translator/parser.hpp"
#include "translator/scopes.hpp"
#include "translator/token.hpp"

namespace parade::translator {
namespace {

/// True for the OpenMP runtime names the shims in xlat_support.hpp provide.
bool is_omp_api_name(std::string_view name) {
  static constexpr std::string_view kNames[] = {
      "omp_get_num_threads", "omp_get_max_threads", "omp_get_thread_num",
      "omp_get_num_procs",   "omp_in_parallel",     "omp_get_wtime",
      "omp_get_wtick",       "omp_init_lock",       "omp_destroy_lock",
      "omp_set_lock",        "omp_unset_lock",      "omp_init_nest_lock",
      "omp_destroy_nest_lock", "omp_set_nest_lock", "omp_unset_nest_lock",
      "omp_lock_t",          "omp_nest_lock_t"};
  return std::find(std::begin(kNames), std::end(kNames), name) !=
         std::end(kNames);
}

/// How an identifier is spelled before any scope is consulted.
enum class SpellKind : char { kPlain, kPrintf, kOmpApi };

SpellKind spell_kind(std::string_view name) {
  if (text_is(name, "printf")) return SpellKind::kPrintf;
  // Every API name starts with omp_; the prefix test spares the search.
  if (text_is(name.substr(0, 4), "omp_") && is_omp_api_name(name)) {
    return SpellKind::kOmpApi;
  }
  return SpellKind::kPlain;
}

struct Symbol {
  /// Value-type spelling (DeclType::value, or a shadowed variable's); empty
  /// when unknown, which type_of spells "long".
  std::string_view type;
  int stars = 0;  // '*'s type_of appends to `type`
  int pointer_depth = 0;
  bool is_array = false;
  bool replicated_global = false;  // rewritten to __prep_<name>.get()
  bool dsm_scalar = false;         // rewritten to (*__pdsm_<name>.get())
  bool threadprivate = false;
};

// The update-vs-invalidate classification (paper §5.2) used to live here as
// a token-pattern pre-pass; it now comes from the semantic analyzer
// (translator/analyze.hpp), which resolves shadowing through a real symbol
// table and checks declared sizes against the collective threshold. CodeGen
// only reads the recorded decisions.

// Pieces a generated line is written from; each appends straight into the
// output buffer (CodeGen::put).
struct Fresh {  // a generated name: __parade_<stem><id>
  const char* stem;
  int id;
};
struct Spelled {  // an identifier as the generated code names it
  Sym sym;
};
struct Name {  // an identifier as written
  Sym sym;
};
struct Rewritten {  // tokens with every identifier spelled
  TokenSpan span;
  const char* if_empty = "";  // what an empty span stands for
};
struct Rendered {  // tokens as written
  TokenSpan span;
};
struct TypeOf {  // the value type of a variable ("long" when unknown)
  Sym var;
};
struct Stars {
  int count;
};

class CodeGen {
 public:
  CodeGen(const TranslateOptions& options, const Analysis& analysis)
      : options_(options), analysis_(analysis) {}

  Result<std::string> run(const TranslationUnit& unit);

 private:
  // --- output helpers ---
  void put(std::string& to, std::string_view s) { to += s; }
  void put(std::string& to, char c) { to += c; }
  void put(std::string& to, int v) { put_number(to, v); }
  void put(std::string& to, std::size_t v) { put_number(to, v); }
  void put(std::string& to, const Fresh& f) {
    to += "__parade_";
    to += f.stem;
    put_number(to, f.id);
  }
  void put(std::string& to, const Spelled& s) {
    spell(to, s.sym, unit_->name(s.sym));
  }
  void put(std::string& to, const Name& n) { to += unit_->name(n.sym); }
  void put(std::string& to, const Rewritten& r) {
    if (r.span.empty()) {
      to += r.if_empty;
    } else {
      rewrite(to, unit_->tokens, r.span);
    }
  }
  void put(std::string& to, const Rendered& r) {
    render_tokens(to, unit_->tokens, r.span.begin, r.span.end,
                  [](const Token& t, std::string& out) { out += t.text; });
  }
  void put(std::string& to, const TypeOf& t) { type_of(to, t.var); }
  void put(std::string& to, const Stars& s) {
    to.append(static_cast<std::size_t>(s.count), '*');
  }
  template <typename Number>
  static void put_number(std::string& to, Number v) {
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
    to.append(digits, end);
  }

  /// Writes one indented line of `pieces` into the output.
  template <typename... Pieces>
  void line(const Pieces&... pieces) {
    out_.append(2 * static_cast<std::size_t>(indent_), ' ');
    (put(out_, pieces), ...);
    out_ += '\n';
  }
  template <typename... Pieces>
  void open(const Pieces&... pieces) {
    line(pieces...);
    ++indent_;
  }
  template <typename... Pieces>
  void close(const Pieces&... pieces) {
    --indent_;
    line(pieces...);
  }
  void close() { close('}'); }
  /// Appends one line of the shared-pool initialisation.
  template <typename... Pieces>
  void init_line(const Pieces&... pieces) {
    (put(shared_init_, pieces), ...);
    shared_init_ += '\n';
  }
  Fresh fresh(const char* stem) { return Fresh{stem, counter_++}; }

  // --- scopes / symbols ---
  const Symbol* lookup(Sym name) const { return scopes_.lookup(name); }
  void declare(Sym name, Symbol symbol) { scopes_.declare(name, symbol); }
  /// A shadow of `var` for a clause: the outer variable's type, no shape.
  Symbol shadow_of(Sym var) const {
    const Symbol* outer = lookup(var);
    Symbol s;
    if (outer == nullptr || outer->type.empty()) {
      s.type = "long";
    } else {
      s.type = outer->type;
      s.stars = outer->stars;
    }
    return s;
  }

  /// Appends identifier `name` (id `sym`, kNoSym when the unit never names
  /// it) as the generated code spells it: replicated and DSM globals go
  /// through their handles, omp_*/printf calls to the shims.
  void spell(std::string& to, Sym sym, std::string_view name) const;
  /// Appends tokens [span.begin, span.end) of `tokens` with every
  /// identifier respelled.
  void rewrite(std::string& to, const std::vector<Token>& tokens,
               TokenSpan span) const;
  /// Appends a schedule chunk, whose text comes from the pragma line and
  /// so is lexed here.
  void rewrite_chunk(std::string& to, const std::string& text) const {
    auto tokens = lex(text);
    if (!tokens.is_ok()) {
      to += text;  // emit verbatim if it does not tokenize
      return;
    }
    rewrite(to, tokens.value(), {0, tokens.value().size() - 1});  // no EOF
  }
  void type_of(std::string& to, Sym var) const;

  // --- statements ---
  Status emit_stmt(const Stmt& stmt);
  Status emit_decl(const Stmt& decl);
  Status emit_pragma(const Stmt& stmt);

  // --- directive handlers ---
  Status emit_parallel(const Directive& d, const Stmt& body);
  Status emit_for(const Directive& d, const Stmt& for_stmt);
  Status emit_sections(const Directive& d, const Stmt& body);
  Status emit_single(const Directive& d, const Stmt& body);
  Status emit_critical(const Directive& d, const Stmt& body);
  Status emit_atomic(const Directive& d, const Stmt& body);

  // --- helpers ---
  /// firstprivate snapshots; returns the first of their consecutive ids.
  int emit_data_env_prologue(const Clauses& c);
  /// Reduction targets' pointers; returns the first of their ids.
  int emit_reduction_pointers(const Clauses& c);
  /// Clause-private shadows inside the construct's scope.
  void declare_clause_shadows(const Clauses& c, int fp_first);
  /// Merges each reduction variable's contributions, one collective per
  /// variable (the paper merges multiple variables into a struct;
  /// per-variable collectives are semantically identical and the
  /// virtual-time model charges them individually).
  void emit_reduction_epilogue(const Clauses& c, int red_first);
  std::optional<UpdateShape> match_update(const Stmt& raw) const;
  void collect_written_scalars(const Stmt& stmt, std::vector<Sym>* names) const;
  int critical_lock_id(const std::string& name);

  Status err(int line, const std::string& message) const {
    return make_error(ErrorCode::kUnsupported,
                      message + " (line " + std::to_string(line) + ")");
  }

  TranslateOptions options_;
  const Analysis& analysis_;
  const TranslationUnit* unit_ = nullptr;  // set by run()
  std::string out_;
  int indent_ = 0;
  int counter_ = 0;
  ScopedTable<Symbol> scopes_;
  std::vector<SpellKind> spell_kind_;  // per symbol id
  std::string shared_init_;            // lines of __parade_shared_init
  std::string schedule_;               // emit_for's chunked schedule text
  std::vector<Sym> written_;           // emit_single's names, stacked
  std::unordered_map<std::string, int> critical_ids_;
  std::string user_main_params_;
  bool saw_main_ = false;
};

void CodeGen::spell(std::string& to, Sym sym, std::string_view name) const {
  const SpellKind kind =
      sym != kNoSym ? spell_kind_[sym] : spell_kind(name);
  if (kind == SpellKind::kPrintf) {
    to += "parade::xlat::master_printf";
    return;
  }
  if (kind == SpellKind::kOmpApi) {
    to += "parade::ompshim::";
    to += name;
    return;
  }
  const Symbol* symbol = lookup(sym);
  if (symbol != nullptr && symbol->replicated_global) {
    to += "__prep_";
    to += name;
    to += ".get()";
  } else if (symbol != nullptr && symbol->dsm_scalar) {
    to += "(*__pdsm_";
    to += name;
    to += ".get())";
  } else {
    to += name;
  }
}

void CodeGen::rewrite(std::string& to, const std::vector<Token>& tokens,
                      TokenSpan span) const {
  // Tokens of the unit carry its ids; a lexed chunk's ids are its own, so
  // its names are looked up by spelling.
  const bool own = &tokens == &unit_->tokens;
  render_tokens(to, tokens, span.begin, span.end,
                [&](const Token& t, std::string& out) {
                  if (t.kind != TokKind::kIdent) {
                    out += t.text;
                  } else {
                    spell(out, own ? t.sym : unit_->symbols.find(t.text),
                          t.text);
                  }
                });
}

void CodeGen::type_of(std::string& to, Sym var) const {
  const Symbol* symbol = lookup(var);
  if (symbol == nullptr || symbol->type.empty()) {
    to += "long";
    return;
  }
  to += symbol->type;
  to.append(static_cast<std::size_t>(symbol->stars), '*');
}

int CodeGen::critical_lock_id(const std::string& name) {
  auto [it, inserted] = critical_ids_.try_emplace(
      name.empty() ? "<unnamed>" : name,
      static_cast<int>(critical_ids_.size()) + 8);
  (void)inserted;
  return it->second;
}

std::optional<UpdateShape> CodeGen::match_update(const Stmt& raw) const {
  auto shape = match_scalar_update(unit_->tokens, raw.expr.span);
  if (!shape) return std::nullopt;
  const Symbol* symbol = lookup(shape->sym);
  if (symbol == nullptr || symbol->is_array || symbol->pointer_depth > 0) {
    return std::nullopt;
  }
  return shape;
}

void CodeGen::collect_written_scalars(const Stmt& stmt,
                                      std::vector<Sym>* names) const {
  if (stmt.kind == StmtKind::kRaw) {
    for (const AccessWrite& w : unit_->access(stmt.expr).writes) {
      // Stores through subscripts, members or pointers are not scalar
      // updates: x[i] = ..., s.f = ..., *p = ...
      if (w.array || w.member || w.deref) continue;
      const Symbol* symbol = lookup(w.sym);
      if (symbol != nullptr && !symbol->is_array &&
          symbol->pointer_depth == 0) {
        names->push_back(w.sym);
      }
    }
    return;
  }
  for (const Stmt& child : stmt.children()) {
    collect_written_scalars(child, names);
  }
}

Status CodeGen::emit_decl(const Stmt& stmt) {
  // Register symbols, emit the (rewritten) declaration.
  const Decl& decl = *stmt.decl;
  out_.append(2 * static_cast<std::size_t>(indent_), ' ');
  bool names_lock = false;
  for (std::size_t t = decl.type.span.begin; t < decl.type.span.end; ++t) {
    const std::string& text = unit_->tokens[t].text;
    if (text.find("omp_lock_t") != std::string::npos ||
        text.find("omp_nest_lock_t") != std::string::npos) {
      names_lock = true;
    }
  }
  if (names_lock) {
    put(out_, Rewritten{decl.type.span});  // qualifies the omp type names
  } else {
    put(out_, Rendered{decl.type.span});
  }
  bool first = true;
  for (const Declarator& d : unit_->declarators_of(decl)) {
    Symbol symbol;
    symbol.type = decl.type.value;
    symbol.stars = d.pointer_depth;
    symbol.pointer_depth = d.pointer_depth;
    symbol.is_array = d.n_dims > 0;
    declare(d.name, symbol);

    out_ += first ? " " : ", ";
    first = false;
    put(out_, Stars{d.pointer_depth});
    put(out_, Name{d.name});
    for (const Expr& dim : unit_->dims_of(d)) {
      out_ += '[';
      put(out_, Rewritten{dim.span});
      out_ += ']';
    }
    if (d.is_function) out_ += "()";  // prototypes inside functions are rare
    if (!d.init.empty()) {
      out_ += " = ";
      put(out_, Rewritten{d.init.span});
    }
  }
  out_ += ";\n";
  return Status::ok();
}

int CodeGen::emit_data_env_prologue(const Clauses& c) {
  // firstprivate: snapshot outer values before shadowing.
  const int first = counter_;
  for (const ClauseVar& var : c.firstprivate) {
    line("auto ", fresh("fp_"), " = ", Spelled{var.sym}, ';');
  }
  return first;
}

int CodeGen::emit_reduction_pointers(const Clauses& c) {
  // Reduction targets: capture pointers before the shadows appear.
  const int first = counter_;
  for (const auto& [op, var] : c.reductions) {
    (void)op;
    line("auto* ", fresh("redptr_"), " = &(", Spelled{var.sym}, ");");
  }
  return first;
}

void CodeGen::declare_clause_shadows(const Clauses& c, int fp_first) {
  for (const ClauseVar& var : c.privates) {
    const Symbol shadow = shadow_of(var.sym);
    line(TypeOf{var.sym}, ' ', var.name, "{};");
    declare(var.sym, shadow);
  }
  for (std::size_t i = 0; i < c.firstprivate.size(); ++i) {
    const ClauseVar& var = c.firstprivate[i];
    const Symbol shadow = shadow_of(var.sym);
    line(TypeOf{var.sym}, ' ', var.name, " = ",
         Fresh{"fp_", fp_first + static_cast<int>(i)}, ';');
    declare(var.sym, shadow);
  }
  for (const auto& [op, var] : c.reductions) {
    const Symbol shadow = shadow_of(var.sym);
    line(TypeOf{var.sym}, ' ', var.name, " = ", reduction_identity(op), ';');
    declare(var.sym, shadow);
  }
}

void CodeGen::emit_reduction_epilogue(const Clauses& c, int red_first) {
  for (std::size_t i = 0; i < c.reductions.size(); ++i) {
    const auto& [op, var] = c.reductions[i];
    const TypeOf type{var.sym};
    const char* cop = reduction_operator(op);
    const char* combine = op == ReductionOp::kSub ? "+" : cop;
    const Fresh ptr{"redptr_", red_first + static_cast<int>(i)};
    open('{');
    line(type, " __contrib = ", var.name, ';');
    line("parade::team_allreduce_bytes(&__contrib, sizeof(__contrib), "
         "[](void* __a, const void* __b, std::size_t) { *static_cast<",
         type, "*>(__a) = *static_cast<", type, "*>(__a) ", combine,
         " *static_cast<const ", type, "*>(__b); });");
    open("if (parade::local_thread_id() == 0) {");
    line('*', ptr, " = *", ptr, ' ', cop, " __contrib;");
    close();
    line("parade::barrier(parade::BarrierScope::kNode);");
    close();
  }
}

Status CodeGen::emit_parallel(const Directive& d, const Stmt& body) {
  const Clauses& c = d.clauses;
  open('{');
  const int fp_first = emit_data_env_prologue(c);

  // copyin: snapshot the master's threadprivate values before the fork.
  const int ci_first = counter_;
  for (const ClauseVar& var : c.copyin) {
    const Symbol* symbol = lookup(var.sym);
    if (symbol == nullptr || !symbol->threadprivate) {
      return err(d.line,
                 "copyin(" + var.name + ") needs a threadprivate variable");
    }
    line("auto ", fresh("ci_"), " = ", var.name, ';');
  }
  if (!c.if_expr.empty()) {
    line("// if(", c.if_expr,
         ") clause noted: this translator always executes the region in "
         "parallel");
  }

  const int red_first = emit_reduction_pointers(c);

  open("parade::parallel([&]() {");
  scopes_.push_scope();

  for (std::size_t i = 0; i < c.copyin.size(); ++i) {
    line(c.copyin[i].name, " = ", Fresh{"ci_", ci_first + static_cast<int>(i)},
         ';');
  }
  declare_clause_shadows(c, fp_first);

  if (Status s = emit_stmt(body); !s) return s;

  emit_reduction_epilogue(c, red_first);

  scopes_.pop_scope();
  close("});");
  close();
  return Status::ok();
}

Status CodeGen::emit_for(const Directive& d, const Stmt& stmt) {
  if (stmt.kind != StmtKind::kFor) {
    return err(d.line, "omp for must be followed by a for loop");
  }
  const ForHeader& h = *stmt.for_header;
  if (!h.canonical) {
    return err(d.line, "omp for loop is not in canonical form (init; "
                       "var relop bound; var update)");
  }
  const Clauses& c = d.clauses;
  const Rewritten step{h.step.span, h.unit_step ? "1" : ""};
  const char* const increasing = h.increasing ? "true" : "false";

  open('{');
  const int fp_first = emit_data_env_prologue(c);
  const int red_first = emit_reduction_pointers(c);

  // Normalized bounds.
  const Fresh count = fresh("count_");
  line("const long ", count, " = parade::xlat::loop_count((long)(",
       Rewritten{h.lower.span}, "), (long)(", Rewritten{h.upper.span},
       "), (long)(", step, "), ", h.inclusive ? "true" : "false", ", ",
       increasing, ");");

  // Schedule clause mapping (paper supports static; dynamic/guided are the
  // §8 extension implemented hierarchically by the runtime). A chunk is
  // spelled here, before the clause shadows below exist.
  std::string_view schedule =
      "parade::Schedule{parade::ScheduleKind::kStatic, 0}";
  if (c.has_schedule) {
    switch (c.schedule) {
      case OmpSchedule::kStatic:
      case OmpSchedule::kDynamic:
        if (c.schedule == OmpSchedule::kDynamic || !c.schedule_chunk.empty()) {
          schedule_ = c.schedule == OmpSchedule::kDynamic
                          ? "parade::Schedule{parade::ScheduleKind::kDynamic, "
                          : "parade::Schedule{parade::ScheduleKind::"
                            "kStaticChunk, ";
          if (c.schedule_chunk.empty()) {
            schedule_ += '1';
          } else {
            schedule_ += "(long)(";
            rewrite_chunk(schedule_, c.schedule_chunk);
            schedule_ += ')';
          }
          schedule_ += '}';
          schedule = schedule_;
        }
        break;
      case OmpSchedule::kGuided:
        schedule = "parade::Schedule{parade::ScheduleKind::kGuided, 0}";
        break;
      case OmpSchedule::kRuntime:
        schedule = "parade::schedule_from_env()";
        break;
    }
  }

  // Lastprivate support: flag + value per variable, selected by whoever
  // executes the sequentially-last iteration, then broadcast. Variable i's
  // flag and value are the fresh names lp_first + 2i and lp_first + 2i + 1.
  const int lp_first = counter_;
  for (const ClauseVar& var : c.lastprivate) {
    line("int ", fresh("lp_has_"), " = 0;");
    line(TypeOf{var.sym}, ' ', fresh("lp_val_"), "{};");
  }
  auto lp_flag = [&](std::size_t i) {
    return Fresh{"lp_has_", lp_first + 2 * static_cast<int>(i)};
  };
  auto lp_value = [&](std::size_t i) {
    return Fresh{"lp_val_", lp_first + 2 * static_cast<int>(i) + 1};
  };

  // Per-thread data environment: this whole translated block runs on every
  // team thread, so shadows declared here are thread-private and visible to
  // the chunk lambda and to the reduction merge after the loop.
  scopes_.push_scope();
  declare_clause_shadows(c, fp_first);

  open("parade::parallel_for(0, ", count, ", ", schedule,
       ", [&](long __lo, long __hi) {");

  open("for (long __it = __lo; __it < __hi; ++__it) {");
  const Symbol var_symbol = h.declares_var()
                                ? Symbol{h.var_type.value}
                                : shadow_of(h.loop_var);
  auto put_var_type = [&](std::string& to) {
    if (h.declares_var()) {
      put(to, Rendered{h.var_type.span});
    } else {
      type_of(to, h.loop_var);
    }
  };
  out_.append(2 * static_cast<std::size_t>(indent_), ' ');
  put_var_type(out_);
  put(out_, ' ');
  put(out_, Name{h.loop_var});
  put(out_, " = (");
  put_var_type(out_);
  put(out_, ")parade::xlat::loop_index((long)(");
  put(out_, Rewritten{h.lower.span});
  put(out_, "), (long)(");
  put(out_, step);
  put(out_, "), ");
  put(out_, increasing);
  put(out_, ", __it);\n");
  scopes_.push_scope();
  declare(h.loop_var, var_symbol);
  if (Status s = emit_stmt(*stmt.first_child); !s) return s;
  for (std::size_t i = 0; i < c.lastprivate.size(); ++i) {
    open("if (__it == ", count, " - 1) {");
    line(lp_flag(i), " = 1;");
    line(lp_value(i), " = ", c.lastprivate[i].name, ';');
    close();
  }
  scopes_.pop_scope();
  close();

  close("}, /*nowait=*/", c.nowait ? "true" : "false", ");");

  // Reductions merge after the loop (inside the enclosing region).
  emit_reduction_epilogue(c, red_first);

  // Lastprivate selection across the team.
  for (std::size_t i = 0; i < c.lastprivate.size(); ++i) {
    const ClauseVar& var = c.lastprivate[i];
    open('{');
    line("struct __Sel { int has; ", TypeOf{var.sym}, " v; } __sel{",
         lp_flag(i), ", ", lp_value(i), "};");
    line("parade::team_allreduce_bytes(&__sel, sizeof(__sel), "
         "[](void* __a, const void* __b, std::size_t) { auto* __x = "
         "static_cast<__Sel*>(__a); const auto* __y = static_cast<const "
         "__Sel*>(__b); if (__y->has) *__x = *__y; });");
    open("if (parade::local_thread_id() == 0 && __sel.has) {");
    line(Spelled{var.sym}, " = __sel.v;");
    close();
    line("parade::barrier(parade::BarrierScope::kNode);");
    close();
  }

  scopes_.pop_scope();
  close();
  return Status::ok();
}

/// A section of a `sections` body: a `section` directive's statement, or a
/// statement before any `section` (section 0); null for anything else.
const Stmt* section_body(const Stmt& child) {
  if (child.kind == StmtKind::kPragma &&
      child.directive->kind == DirectiveKind::kSection) {
    return child.first_child;
  }
  return child.kind != StmtKind::kEmpty ? &child : nullptr;
}

Status CodeGen::emit_sections(const Directive& d, const Stmt& body) {
  if (body.kind != StmtKind::kBlock) {
    return err(d.line, "omp sections needs a block body");
  }
  std::size_t sections = 0;
  for (const Stmt& child : body.children()) {
    if (section_body(child) != nullptr) ++sections;
  }
  open('{');
  open("parade::parallel_for(0, ", sections,
       ", parade::Schedule{parade::ScheduleKind::kStaticChunk, 1}, "
       "[&](long __lo, long __hi) {");
  open("for (long __s = __lo; __s < __hi; ++__s) {");
  open("switch (__s) {");
  std::size_t i = 0;
  for (const Stmt& child : body.children()) {
    const Stmt* section = section_body(child);
    if (section == nullptr) continue;
    open("case ", i++, ": {");
    scopes_.push_scope();
    if (Status s = emit_stmt(*section); !s) return s;
    scopes_.pop_scope();
    line("break;");
    close();
  }
  close();
  close();
  close("}, /*nowait=*/", d.clauses.nowait ? "true" : "false", ");");
  close();
  return Status::ok();
}

Status CodeGen::emit_single(const Directive& d, const Stmt& body) {
  // Scalars written inside the block travel in the broadcast payload
  // (paper Figure 3: executing node updates, MPI_Bcast propagates), in name
  // order. They stack on written_, above any enclosing single's.
  const std::size_t first = written_.size();
  collect_written_scalars(body, &written_);
  std::sort(written_.begin() + static_cast<std::ptrdiff_t>(first),
            written_.end());
  written_.erase(std::unique(written_.begin() +
                                 static_cast<std::ptrdiff_t>(first),
                             written_.end()),
                 written_.end());
  std::sort(written_.begin() + static_cast<std::ptrdiff_t>(first),
            written_.end(), [&](Sym a, Sym b) {
              return unit_->name(a) < unit_->name(b);
            });
  const std::size_t count = written_.size() - first;
  auto name = [&](std::size_t i) { return written_[first + i]; };

  open('{');
  out_.append(2 * static_cast<std::size_t>(indent_), ' ');
  out_ += "struct __ParadeSingle { ";
  for (std::size_t i = 0; i < count; ++i) {
    type_of(out_, name(i));
    put(out_, " v");
    put(out_, i);
    put(out_, "; ");
  }
  if (count == 0) out_ += "char v0; ";
  out_ += "} __sgl{};\n";
  open("parade::single_small(&__sgl, sizeof(__sgl), [&]() {");
  scopes_.push_scope();
  if (Status s = emit_stmt(body); !s) return s;
  for (std::size_t i = 0; i < count; ++i) {
    line("__sgl.v", i, " = ", Spelled{name(i)}, ';');
  }
  scopes_.pop_scope();
  close("});");
  if (count > 0) {
    open("if (parade::local_thread_id() == 0) {");
    for (std::size_t i = 0; i < count; ++i) {
      line(Spelled{name(i)}, " = __sgl.v", i, ';');
    }
    close();
    line("parade::barrier(parade::BarrierScope::kNode);");
  }
  if (!d.clauses.nowait) {
    // OpenMP single carries an implicit barrier; ParADE's broadcast already
    // synchronizes the data, so a node-local barrier suffices (the paper's
    // "reducing the number of inter-process barriers").
    line("parade::barrier(parade::BarrierScope::kNode);");
  }
  close();
  written_.resize(first);
  return Status::ok();
}

Status CodeGen::emit_critical(const Directive& d, const Stmt& body) {
  // Lexically analyzable single-update criticals map to collectives
  // (Figure 2 right); everything else falls back to the DSM lock. The
  // analyzer made the call for every site (type-, sharing- and size-aware:
  // declared size vs mp_threshold_bytes); follow it.
  const Stmt* stmt = &body;
  if (stmt->kind == StmtKind::kBlock && stmt->child_count() == 1) {
    stmt = stmt->first_child;
  }
  if (analysis_.sync_sites.at(d.line).collective &&
      stmt->kind == StmtKind::kRaw) {
    if (auto pattern = match_update(*stmt)) {
      const TypeOf type{pattern->sym};
      open('{');
      line(type, " __contrib = (", Rewritten{pattern->expr, "1"}, ");");
      line("parade::team_allreduce_bytes(&__contrib, sizeof(__contrib), "
           "[](void* __a, const void* __b, std::size_t) { *static_cast<",
           type, "*>(__a) = *static_cast<", type, "*>(__a) ",
           pattern->combine_op, " *static_cast<const ", type,
           "*>(__b); });");
      open("if (parade::local_thread_id() == 0) {");
      line(Spelled{pattern->sym}, " = ", Spelled{pattern->sym}, ' ',
           pattern->apply_op, " __contrib;");
      close();
      line("parade::barrier(parade::BarrierScope::kNode);");
      close();
      return Status::ok();
    }
  }
  const int lock_id = critical_lock_id(d.clauses.critical_name);
  open('{');
  line("parade::dsm_lock(", lock_id, ");");
  scopes_.push_scope();
  if (Status s = emit_stmt(body); !s) return s;
  scopes_.pop_scope();
  line("parade::dsm_unlock(", lock_id, ");");
  close();
  return Status::ok();
}

Status CodeGen::emit_atomic(const Directive& d, const Stmt& body) {
  const Stmt* stmt = &body;
  if (stmt->kind == StmtKind::kBlock && stmt->child_count() == 1) {
    stmt = stmt->first_child;
  }
  if (stmt->kind != StmtKind::kRaw) {
    return err(d.line, "omp atomic requires an expression statement");
  }
  if (!match_update(*stmt)) {
    return err(d.line, "omp atomic statement is not a supported update "
                       "(x op= expr, x++, x = x op expr)");
  }
  // Identical machinery to the analyzable critical (paper: atomic is a
  // special case of critical, exactly mapped to a collective).
  return emit_critical(d, body);
}

Status CodeGen::emit_pragma(const Stmt& stmt) {
  const Directive& d = *stmt.directive;
  switch (d.kind) {
    case DirectiveKind::kParallel:
      return emit_parallel(d, *stmt.first_child);
    case DirectiveKind::kParallelFor: {
      // parallel for == parallel { for }: the whole clause set goes to the
      // inner `for` inside a clause-less parallel.
      open('{');
      open("parade::parallel([&]() {");
      scopes_.push_scope();
      Status s = emit_for(d, *stmt.first_child);
      scopes_.pop_scope();
      close("});");
      close();
      return s;
    }
    case DirectiveKind::kFor:
      return emit_for(d, *stmt.first_child);
    case DirectiveKind::kParallelSections: {
      open("parade::parallel([&]() {");
      scopes_.push_scope();
      Status s = emit_sections(d, *stmt.first_child);
      scopes_.pop_scope();
      close("});");
      return s;
    }
    case DirectiveKind::kSections:
      return emit_sections(d, *stmt.first_child);
    case DirectiveKind::kSection:
      return err(d.line, "omp section outside sections");
    case DirectiveKind::kSingle:
      return emit_single(d, *stmt.first_child);
    case DirectiveKind::kMaster:
      open("if (parade::node_id() == 0 && parade::local_thread_id() == 0) {");
      scopes_.push_scope();
      if (Status s = emit_stmt(*stmt.first_child); !s) return s;
      scopes_.pop_scope();
      close();
      return Status::ok();
    case DirectiveKind::kCritical:
      return emit_critical(d, *stmt.first_child);
    case DirectiveKind::kAtomic:
      return emit_atomic(d, *stmt.first_child);
    case DirectiveKind::kBarrier:
      line("parade::barrier();");
      return Status::ok();
    case DirectiveKind::kFlush:
      line("parade::barrier(); /* flush approximated by a global barrier */");
      return Status::ok();
    case DirectiveKind::kOrdered:
      line("/* ordered: static scheduling preserves chunk order per thread */");
      return emit_stmt(*stmt.first_child);
    case DirectiveKind::kThreadprivate:
      return err(d.line, "threadprivate is not supported by this translator");
  }
  return err(d.line, "unhandled directive");
}

Status CodeGen::emit_stmt(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kBlock: {
      open('{');
      scopes_.push_scope();
      for (const Stmt& child : stmt.children()) {
        if (Status s = emit_stmt(child); !s) return s;
      }
      scopes_.pop_scope();
      close();
      return Status::ok();
    }
    case StmtKind::kRaw:
      line(Rewritten{stmt.expr.span}, ';');
      return Status::ok();
    case StmtKind::kDecl:
      return emit_decl(stmt);
    case StmtKind::kFor: {
      const ForHeader& h = *stmt.for_header;
      line("for (", Rewritten{h.init_text.span}, "; ",
           Rewritten{h.cond_text.span}, "; ", Rewritten{h.incr_text.span},
           ')');
      scopes_.push_scope();
      if (h.canonical && h.declares_var()) {
        declare(h.loop_var, Symbol{h.var_type.value});
      }
      Status s = emit_stmt(*stmt.first_child);
      scopes_.pop_scope();
      return s;
    }
    case StmtKind::kIf: {
      line("if (", Rewritten{stmt.expr.span}, ')');
      if (Status s = emit_stmt(*stmt.first_child); !s) return s;
      if (stmt.has_else) {
        line("else");
        return emit_stmt(*stmt.child(1));
      }
      return Status::ok();
    }
    case StmtKind::kWhile:
      line("while (", Rewritten{stmt.expr.span}, ')');
      return emit_stmt(*stmt.first_child);
    case StmtKind::kDoWhile:
      line("do");
      if (Status s = emit_stmt(*stmt.first_child); !s) return s;
      line("while (", Rewritten{stmt.expr.span}, ");");
      return Status::ok();
    case StmtKind::kSwitch:
      line("switch (", Rewritten{stmt.expr.span}, ')');
      return emit_stmt(*stmt.first_child);
    case StmtKind::kLabel:
      line(Rendered{stmt.expr.span});
      return stmt.first_child != nullptr ? emit_stmt(*stmt.first_child)
                                         : Status::ok();
    case StmtKind::kPragma:
      return emit_pragma(stmt);
    case StmtKind::kHashLine:
      line(unit_->tokens[stmt.expr.span.begin].text);
      return Status::ok();
    case StmtKind::kEmpty:
      line(';');
      return Status::ok();
  }
  return Status::ok();
}

Result<std::string> CodeGen::run(const TranslationUnit& unit) {
  unit_ = &unit;
  const std::size_t symbols = unit.symbols.size();
  scopes_.reset(symbols);
  spell_kind_.resize(symbols);
  for (Sym sym = 0; sym < symbols; ++sym) {
    spell_kind_[sym] = spell_kind(unit.name(sym));
  }
  // Placement comes from the semantic analysis: which file-scope scalars are
  // written by unmanaged statements inside parallel regions (DSM pool), and
  // which globals are threadprivate.
  std::vector<Placement> placement(symbols, Placement::kReplicated);
  for (const auto& [name, vc] : analysis_.globals) {
    const Sym sym = unit.symbols.find(name);
    if (sym != kNoSym) placement[sym] = vc.placement;
  }

  scopes_.push_scope();  // file scope
  line("// Generated by parade_omcc (ParADE OpenMP translator). Do not edit.");
  line("#include \"", options_.support_include, '"');
  line();

  for (const TopItem& item : unit.items) {
    switch (item.kind) {
      case TopItem::Kind::kHashLine:
        line(unit.tokens[item.token].text);
        break;
      case TopItem::Kind::kRaw:
        line(Rewritten{item.stmt->expr.span}, ';');
        break;
      case TopItem::Kind::kPragma: {
        if (item.stmt->directive->kind == DirectiveKind::kThreadprivate) {
          line("// threadprivate: handled at the declarations above");
          break;
        }
        return err(item.stmt->directive->line,
                   "OpenMP directive at file scope");
      }
      case TopItem::Kind::kDecl: {
        // File-scope data: arrays go to the DSM pool; scalars/pointers become
        // node-replicated (paper §5.2: page consistency for large data,
        // update-by-collective for small synchronization-managed data).
        const Stmt& stmt = *item.stmt;
        const Decl& decl = *stmt.decl;
        const std::string_view value = decl.type.value;
        for (const Declarator& d : unit.declarators_of(decl)) {
          const Name name{d.name};
          if (d.is_function) {
            // Prototype: emit verbatim-ish.
            line(Rendered{decl.type.span}, ' ', name, "();");
            continue;
          }
          const std::span<const Expr> dims = unit.dims_of(d);
          Symbol symbol;
          symbol.type = value;
          symbol.stars = d.pointer_depth;
          symbol.pointer_depth = d.pointer_depth;
          if (!dims.empty()) {
            if (!d.init.empty()) {
              return err(stmt.line, "initialized global arrays are not "
                                    "supported (move init into main)");
            }
            // DSM placement: emit a replicated pointer + pool allocation.
            symbol.is_array = false;
            symbol.stars = symbol.pointer_depth = 1;
            symbol.replicated_global = true;
            declare(d.name, symbol);
            const Stars elem_stars{d.pointer_depth};
            out_.append(2 * static_cast<std::size_t>(indent_), ' ');
            out_ += "static parade::xlat::Replicated<decltype(static_cast<";
            out_ += value;
            put(out_, elem_stars);
            out_ += " (*)";
            for (std::size_t dim = 1; dim < dims.size(); ++dim) {
              out_ += '[';
              put(out_, Rendered{dims[dim].span});
              out_ += ']';
            }
            out_ += ">(nullptr))> __prep_";
            put(out_, name);
            out_ += ";\n";

            put(shared_init_, "__prep_");
            put(shared_init_, name);
            put(shared_init_, ".get() = reinterpret_cast<");
            put(shared_init_, value);
            put(shared_init_, elem_stars);
            put(shared_init_, " (*)");
            for (std::size_t dim = 1; dim < dims.size(); ++dim) {
              shared_init_ += '[';
              put(shared_init_, Rendered{dims[dim].span});
              shared_init_ += ']';
            }
            put(shared_init_, ">(parade::shmalloc(sizeof(");
            put(shared_init_, value);
            put(shared_init_, elem_stars);
            shared_init_ += ')';
            for (const Expr& dim : dims) {
              shared_init_ += " * (";
              put(shared_init_, Rendered{dim.span});
              shared_init_ += ')';
            }
            init_line("));");
          } else if (placement[d.name] == Placement::kThreadprivate) {
            // OpenMP threadprivate: one instance per thread, no rewriting.
            symbol.threadprivate = true;
            declare(d.name, symbol);
            out_.append(2 * static_cast<std::size_t>(indent_), ' ');
            out_ += "static thread_local ";
            out_ += value;
            put(out_, Stars{d.pointer_depth});
            out_ += ' ';
            put(out_, name);
            for (const Expr& dim : dims) {
              out_ += '[';
              put(out_, Rendered{dim.span});
              out_ += ']';
            }
            if (!d.init.empty()) {
              out_ += " = ";
              put(out_, Rendered{d.init.span});
            }
            out_ += ";\n";
          } else if (d.pointer_depth == 0 &&
                     placement[d.name] == Placement::kDsmScalar) {
            // Written by unmanaged parallel code: place in the DSM pool.
            symbol.dsm_scalar = true;
            declare(d.name, symbol);
            line("static parade::xlat::Replicated<", value, "*> __pdsm_", name,
                 ';');
            init_line("__pdsm_", name, ".get() = static_cast<", value,
                      "*>(parade::shmalloc(sizeof(", value, ")));");
            if (!d.init.empty()) {
              init_line("if (parade::node_id() == 0) { *__pdsm_", name,
                        ".get() = ", Rendered{d.init.span}, "; }");
            }
          } else {
            symbol.replicated_global = true;
            declare(d.name, symbol);
            const Stars stars{d.pointer_depth};
            if (d.init.empty()) {
              line("static parade::xlat::Replicated<", value, stars,
                   "> __prep_", name, ';');
            } else {
              line("static parade::xlat::Replicated<", value, stars,
                   "> __prep_", name, "{static_cast<", value, stars, ">(",
                   Rendered{d.init.span}, ")};");
            }
          }
        }
        break;
      }
      case TopItem::Kind::kFunction: {
        const FunctionDef& fn = item.function;
        const bool is_main = text_is(unit.name(fn.name), "main");
        out_.append(2 * static_cast<std::size_t>(indent_), ' ');
        if (is_main) {
          saw_main_ = true;
          user_main_params_ = render_tokens(unit.tokens, fn.params.begin,
                                            fn.params.end);
          out_ += "static int __parade_user_main";
        } else {
          if (fn.ret_type.empty()) {
            out_ += "int";
          } else {
            put(out_, Rendered{fn.ret_type});
          }
          out_ += ' ';
          put(out_, Name{fn.name});
        }
        out_ += '(';
        put(out_, Rendered{fn.params});
        out_ += ")\n";
        scopes_.push_scope();
        for (const Param& p : fn.param_list) {
          // The '*'s stay in the type text, which type_of spells as is.
          Symbol symbol;
          symbol.type = p.type.value;
          symbol.is_array = p.is_array;
          declare(p.name, symbol);
        }
        if (Status s = emit_stmt(*fn.body); !s) return s;
        scopes_.pop_scope();
        line();
        break;
      }
    }
  }

  // Shared-pool initialisation (runs once per node, before user main).
  line("static void __parade_shared_init() {");
  ++indent_;
  for (std::size_t at = 0; at < shared_init_.size();) {
    const std::size_t end = shared_init_.find('\n', at);
    line(std::string_view(shared_init_).substr(at, end - at));
    at = end + 1;
  }
  if (!shared_init_.empty()) {
    // Publish node 0's initial values before user code touches the pool.
    line("parade::barrier();");
  }
  --indent_;
  line('}');
  line();

  if (options_.emit_main_wrapper && saw_main_) {
    const bool wants_args = user_main_params_.find("argc") != std::string::npos;
    line("int main(int argc, char** argv) {");
    ++indent_;
    line("(void)argc; (void)argv;");
    line("return parade::xlat::launch([&]() -> int { "
         "__parade_shared_init(); return __parade_user_main(",
         wants_args ? "argc, argv" : "", "); });");
    --indent_;
    line('}');
  }

  scopes_.pop_scope();
  return std::move(out_);
}

}  // namespace

Result<std::string> generate(const TranslationUnit& unit,
                             const TranslateOptions& options,
                             const Analysis& analysis) {
  CodeGen codegen(options, analysis);
  return codegen.run(unit);
}

}  // namespace parade::translator

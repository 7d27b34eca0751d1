#include "translator/codegen.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "translator/parser.hpp"
#include "translator/token.hpp"

namespace parade::translator {
namespace {

const std::unordered_set<std::string>& omp_api_names() {
  static const std::unordered_set<std::string> names = {
      "omp_get_num_threads", "omp_get_max_threads", "omp_get_thread_num",
      "omp_get_num_procs",   "omp_in_parallel",     "omp_get_wtime",
      "omp_get_wtick",       "omp_init_lock",       "omp_destroy_lock",
      "omp_set_lock",        "omp_unset_lock",      "omp_init_nest_lock",
      "omp_destroy_nest_lock", "omp_set_nest_lock", "omp_unset_nest_lock",
      "omp_lock_t",          "omp_nest_lock_t"};
  return names;
}

/// Strips storage-class and cv qualifiers so the remainder can be used as a
/// template argument / cast target ("static long" -> "long").
std::string value_type_of(const std::string& decl_type) {
  std::string out;
  for (const std::string_view word : type_words(decl_type)) {
    if (!out.empty()) out += ' ';
    if (text_is(word, "omp_lock_t") || text_is(word, "omp_nest_lock_t")) {
      out += "parade::ompshim::";
    }
    out += word;
  }
  return out.empty() ? decl_type : out;
}

struct Symbol {
  std::string type;  // base type text without stars
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

class CodeGen {
 public:
  CodeGen(const TranslateOptions& options, const Analysis& analysis)
      : options_(options), analysis_(analysis) {}

  Result<std::string> run(const TranslationUnit& unit);

 private:
  // --- output helpers ---
  void line(const std::string& text) {
    out_.append(2 * static_cast<std::size_t>(indent_), ' ');
    out_ += text;
    out_ += '\n';
  }
  void open(const std::string& text) {
    line(text);
    ++indent_;
  }
  void close(const std::string& text = "}") {
    --indent_;
    line(text);
  }
  std::string unique(const std::string& stem) {
    return "__parade_" + stem + std::to_string(counter_++);
  }

  // --- scopes / symbols ---
  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }
  const Symbol* lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }
  void declare(const std::string& name, Symbol symbol) {
    scopes_.back()[name] = std::move(symbol);
  }

  /// Spelling of identifier `name` in the generated code: replicated and
  /// DSM globals go through their handles, omp_*/printf calls to the shims.
  std::string spell(const std::string& name) const;
  /// Renders tokens [span.begin, span.end) of `tokens` with every
  /// identifier respelled.
  std::string rewrite(const std::vector<Token>& tokens, TokenSpan span) const;
  /// The same over an expression of the unit; values the parser made up
  /// (the implicit step `1`) have no tokens and come back as they are.
  std::string rewrite(const Expr& expr) const {
    return expr.span.empty() ? expr.text : rewrite(*tokens_, expr.span);
  }
  /// The same over a schedule chunk, whose text comes from the pragma line
  /// and so is lexed here.
  std::string rewrite_chunk(const std::string& text) const {
    auto tokens = lex(text);
    if (!tokens.is_ok()) return text;  // emit verbatim if it does not tokenize
    return rewrite(tokens.value(), {0, tokens.value().size() - 1});  // no EOF
  }

  // --- statements ---
  Status emit_stmt(const Stmt& stmt);
  Status emit_block_children(const Stmt& block);
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
  Status emit_data_env_prologue(const Clauses& c,
                                std::vector<std::string>* fp_tmp_names);
  void emit_reduction_epilogue(const Clauses& c);
  std::optional<UpdateShape> match_update(const Stmt& raw) const;
  std::string type_of(const std::string& var) const;
  void collect_written_scalars(const Stmt& stmt,
                               std::set<std::string>* names) const;
  int critical_lock_id(const std::string& name);

  Status err(int line, const std::string& message) const {
    return make_error(ErrorCode::kUnsupported,
                      message + " (line " + std::to_string(line) + ")");
  }

  TranslateOptions options_;
  const Analysis& analysis_;
  const std::vector<Token>* tokens_ = nullptr;  // the unit's, set by run()
  std::string out_;
  int indent_ = 0;
  int counter_ = 0;
  std::vector<std::unordered_map<std::string, Symbol>> scopes_;
  std::vector<std::string> shared_init_lines_;
  std::unordered_map<std::string, int> critical_ids_;
  std::string user_main_params_;
  bool saw_main_ = false;
};

std::string CodeGen::spell(const std::string& name) const {
  if (text_is(name, "printf")) return "parade::xlat::master_printf";
  // Every API name starts with omp_; the prefix test spares the hash.
  if (text_is(std::string_view(name).substr(0, 4), "omp_") &&
      omp_api_names().count(name) > 0) {
    return "parade::ompshim::" + name;
  }
  const Symbol* symbol = lookup(name);
  if (symbol != nullptr && symbol->replicated_global) {
    return "__prep_" + name + ".get()";
  }
  if (symbol != nullptr && symbol->dsm_scalar) {
    return "(*__pdsm_" + name + ".get())";
  }
  return name;
}

std::string CodeGen::rewrite(const std::vector<Token>& tokens,
                             TokenSpan span) const {
  std::string out;
  render_tokens(out, tokens, span.begin, span.end,
                [this](const Token& t, std::string& to) {
                  if (t.kind == TokKind::kIdent) {
                    to += spell(t.text);
                  } else {
                    to += t.text;
                  }
                });
  return out;
}

std::string CodeGen::type_of(const std::string& var) const {
  const Symbol* symbol = lookup(var);
  if (symbol == nullptr || symbol->type.empty()) return "long";
  std::string type = value_type_of(symbol->type);
  for (int i = 0; i < symbol->pointer_depth; ++i) type += "*";
  return type;
}

int CodeGen::critical_lock_id(const std::string& name) {
  const std::string key = name.empty() ? "<unnamed>" : name;
  auto [it, inserted] = critical_ids_.try_emplace(
      key, static_cast<int>(critical_ids_.size()) + 8);
  (void)inserted;
  return it->second;
}

std::optional<UpdateShape> CodeGen::match_update(const Stmt& raw) const {
  auto shape = match_scalar_update(*tokens_, raw.text.span);
  if (!shape) return std::nullopt;
  const Symbol* symbol = lookup(shape->var);
  if (symbol == nullptr || symbol->is_array || symbol->pointer_depth > 0) {
    return std::nullopt;
  }
  return shape;
}

void CodeGen::collect_written_scalars(const Stmt& stmt,
                                      std::set<std::string>* names) const {
  if (stmt.kind == StmtKind::kRaw) {
    for (const AccessScan::Write& w : stmt.text.access().writes) {
      // Stores through subscripts, members or pointers are not scalar
      // updates: x[i] = ..., s.f = ..., *p = ...
      if (w.array || w.member || w.deref) continue;
      const Symbol* symbol = lookup(w.name);
      if (symbol != nullptr && !symbol->is_array &&
          symbol->pointer_depth == 0) {
        names->insert(w.name);
      }
    }
    return;
  }
  for (const StmtPtr& child : stmt.children) {
    if (child) collect_written_scalars(*child, names);
  }
}

Status CodeGen::emit_decl(const Stmt& decl) {
  // Register symbols, emit the (rewritten) declaration.
  std::string text = decl.decl_type.text;
  if (text.find("omp_lock_t") != std::string::npos ||
      text.find("omp_nest_lock_t") != std::string::npos) {
    text = rewrite(decl.decl_type);  // qualifies the omp type names
  }
  bool first = true;
  for (const Declarator& d : decl.declarators) {
    Symbol symbol;
    symbol.type = decl.decl_type.text;
    symbol.pointer_depth = d.pointer_depth;
    symbol.is_array = !d.array_dims.empty();
    declare(d.name, symbol);

    text += first ? " " : ", ";
    first = false;
    for (int i = 0; i < d.pointer_depth; ++i) text += "*";
    text += d.name;
    for (const Expr& dim : d.array_dims) {
      text += '[';
      text += rewrite(dim);
      text += ']';
    }
    if (d.is_function) text += "()";  // prototypes inside functions are rare
    if (!d.init.empty()) {
      text += " = ";
      text += rewrite(d.init);
    }
  }
  line(text + ";");
  return Status::ok();
}

Status CodeGen::emit_data_env_prologue(const Clauses& c,
                                       std::vector<std::string>* fp_tmps) {
  // firstprivate: snapshot outer values before shadowing.
  for (const std::string& var : c.firstprivate) {
    const std::string tmp = unique("fp_");
    line("auto " + tmp + " = " + spell(var) + ";");
    fp_tmps->push_back(tmp);
  }
  return Status::ok();
}

Status CodeGen::emit_parallel(const Directive& d, const Stmt& body) {
  const Clauses& c = d.clauses;
  open("{");
  std::vector<std::string> fp_tmps;
  if (Status s = emit_data_env_prologue(c, &fp_tmps); !s) return s;

  // copyin: snapshot the master's threadprivate values before the fork.
  std::vector<std::string> ci_tmps;
  for (const std::string& var : c.copyin) {
    const Symbol* symbol = lookup(var);
    if (symbol == nullptr || !symbol->threadprivate) {
      return err(d.line, "copyin(" + var + ") needs a threadprivate variable");
    }
    const std::string tmp = unique("ci_");
    line("auto " + tmp + " = " + var + ";");
    ci_tmps.push_back(tmp);
  }
  if (!c.if_expr.empty()) {
    line("// if(" + c.if_expr + ") clause noted: this translator always "
         "executes the region in parallel");
  }

  // Reduction targets: capture pointers before the shadows appear.
  std::vector<std::string> red_ptrs;
  for (const auto& [op, var] : c.reductions) {
    (void)op;
    const std::string ptr = unique("redptr_");
    line("auto* " + ptr + " = &(" + spell(var) + ");");
    red_ptrs.push_back(ptr);
  }

  open("parade::parallel([&]() {");
  push_scope();

  for (std::size_t i = 0; i < c.copyin.size(); ++i) {
    line(c.copyin[i] + " = " + ci_tmps[i] + ";");
  }
  for (const std::string& var : c.privates) {
    line(type_of(var) + " " + var + "{};");
    declare(var, Symbol{type_of(var), 0, false, false, false});
  }
  for (std::size_t i = 0; i < c.firstprivate.size(); ++i) {
    const std::string& var = c.firstprivate[i];
    line(type_of(var) + " " + var + " = " + fp_tmps[i] + ";");
    declare(var, Symbol{type_of(var), 0, false, false, false});
  }
  for (const auto& [op, var] : c.reductions) {
    line(type_of(var) + " " + var + " = " + reduction_identity(op) + ";");
    declare(var, Symbol{type_of(var), 0, false, false, false});
  }

  if (Status s = emit_stmt(body); !s) return s;

  // Merge reductions: one collective per variable (the paper merges multiple
  // variables into a struct; per-variable collectives are semantically
  // identical and the virtual-time model charges them individually).
  for (std::size_t i = 0; i < c.reductions.size(); ++i) {
    const auto& [op, var] = c.reductions[i];
    const std::string type = type_of(var);
    const char* cop = reduction_operator(op);
    const std::string combine = op == ReductionOp::kSub ? "+" : cop;
    open("{");
    line(type + " __contrib = " + var + ";");
    line("parade::team_allreduce_bytes(&__contrib, sizeof(__contrib), "
         "[](void* __a, const void* __b, std::size_t) { *static_cast<" +
         type + "*>(__a) = *static_cast<" + type + "*>(__a) " + combine +
         " *static_cast<const " + type + "*>(__b); });");
    open("if (parade::local_thread_id() == 0) {");
    line("*" + red_ptrs[i] + " = *" + red_ptrs[i] + " " + std::string(cop) +
         " __contrib;");
    close();
    line("parade::barrier(parade::BarrierScope::kNode);");
    close();
  }

  pop_scope();
  close("});");
  close();
  return Status::ok();
}

Status CodeGen::emit_for(const Directive& d, const Stmt& stmt) {
  if (stmt.kind != StmtKind::kFor) {
    return err(d.line, "omp for must be followed by a for loop");
  }
  const ForHeader& h = stmt.for_header;
  if (!h.canonical) {
    return err(d.line, "omp for loop is not in canonical form (init; "
                       "var relop bound; var update)");
  }
  const Clauses& c = d.clauses;

  open("{");
  std::vector<std::string> fp_tmps;
  if (Status s = emit_data_env_prologue(c, &fp_tmps); !s) return s;

  std::vector<std::string> red_ptrs;
  for (const auto& [op, var] : c.reductions) {
    (void)op;
    const std::string ptr = unique("redptr_");
    line("auto* " + ptr + " = &(" + spell(var) + ");");
    red_ptrs.push_back(ptr);
  }

  // Normalized bounds.
  const std::string count = unique("count_");
  line("const long " + count + " = parade::xlat::loop_count((long)(" +
       rewrite(h.lower) + "), (long)(" + rewrite(h.upper) + "), (long)(" +
       rewrite(h.step) + "), " + (h.inclusive ? "true" : "false") + ", " +
       (h.increasing ? "true" : "false") + ");");

  // Schedule clause mapping (paper supports static; dynamic/guided are the
  // §8 extension implemented hierarchically by the runtime).
  std::string schedule = "parade::Schedule{parade::ScheduleKind::kStatic, 0}";
  if (c.has_schedule) {
    switch (c.schedule) {
      case OmpSchedule::kStatic:
        schedule = c.schedule_chunk.empty()
                       ? "parade::Schedule{parade::ScheduleKind::kStatic, 0}"
                       : "parade::Schedule{parade::ScheduleKind::kStaticChunk, "
                         "(long)(" + rewrite_chunk(c.schedule_chunk) + ")}";
        break;
      case OmpSchedule::kDynamic:
        schedule =
            "parade::Schedule{parade::ScheduleKind::kDynamic, " +
            (c.schedule_chunk.empty()
                 ? std::string("1")
                 : "(long)(" + rewrite_chunk(c.schedule_chunk) + ")") +
            "}";
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
  // executes the sequentially-last iteration, then broadcast.
  struct LastPrivate {
    std::string var;
    std::string flag;
    std::string value;
  };
  std::vector<LastPrivate> lastprivates;
  for (const std::string& var : c.lastprivate) {
    LastPrivate lp{var, unique("lp_has_"), unique("lp_val_")};
    line("int " + lp.flag + " = 0;");
    line(type_of(var) + " " + lp.value + "{};");
    lastprivates.push_back(lp);
  }

  // Per-thread data environment: this whole translated block runs on every
  // team thread, so shadows declared here are thread-private and visible to
  // the chunk lambda and to the reduction merge after the loop.
  push_scope();
  for (const std::string& var : c.privates) {
    const std::string type = type_of(var);
    line(type + " " + var + "{};");
    declare(var, Symbol{type, 0, false, false, false});
  }
  for (std::size_t i = 0; i < c.firstprivate.size(); ++i) {
    const std::string& var = c.firstprivate[i];
    const std::string type = type_of(var);
    line(type + " " + var + " = " + fp_tmps[i] + ";");
    declare(var, Symbol{type, 0, false, false, false});
  }
  for (const auto& [op, var] : c.reductions) {
    const std::string type = type_of(var);
    line(type + " " + var + " = " + reduction_identity(op) + ";");
    declare(var, Symbol{type, 0, false, false, false});
  }

  open("parade::parallel_for(0, " + count + ", " + schedule +
       ", [&](long __lo, long __hi) {");

  open("for (long __it = __lo; __it < __hi; ++__it) {");
  const std::string var_type =
      !h.var_decl_type.empty() ? h.var_decl_type : type_of(h.loop_var);
  line(var_type + " " + h.loop_var + " = (" + var_type +
       ")parade::xlat::loop_index((long)(" + rewrite(h.lower) + "), (long)(" +
       rewrite(h.step) + "), " + (h.increasing ? "true" : "false") +
       ", __it);");
  push_scope();
  declare(h.loop_var, Symbol{var_type, 0, false, false, false});
  if (Status s = emit_stmt(*stmt.children.front()); !s) return s;
  for (const LastPrivate& lp : lastprivates) {
    open("if (__it == " + count + " - 1) {");
    line(lp.flag + " = 1;");
    line(lp.value + " = " + lp.var + ";");
    close();
  }
  pop_scope();
  close();

  close("}, /*nowait=*/" + std::string(c.nowait ? "true" : "false") + ");");

  // Reductions merge after the loop (inside the enclosing region).
  for (std::size_t i = 0; i < c.reductions.size(); ++i) {
    const auto& [op, var] = c.reductions[i];
    const std::string type = type_of(var);
    const char* cop = reduction_operator(op);
    const std::string combine = op == ReductionOp::kSub ? "+" : cop;
    open("{");
    line(type + " __contrib = " + var + ";");
    line("parade::team_allreduce_bytes(&__contrib, sizeof(__contrib), "
         "[](void* __a, const void* __b, std::size_t) { *static_cast<" +
         type + "*>(__a) = *static_cast<" + type + "*>(__a) " + combine +
         " *static_cast<const " + type + "*>(__b); });");
    open("if (parade::local_thread_id() == 0) {");
    line("*" + red_ptrs[i] + " = *" + red_ptrs[i] + " " + std::string(cop) +
         " __contrib;");
    close();
    line("parade::barrier(parade::BarrierScope::kNode);");
    close();
  }

  // Lastprivate selection across the team.
  for (const LastPrivate& lp : lastprivates) {
    const std::string type = type_of(lp.var);
    open("{");
    line("struct __Sel { int has; " + type + " v; } __sel{" + lp.flag + ", " +
         lp.value + "};");
    line("parade::team_allreduce_bytes(&__sel, sizeof(__sel), "
         "[](void* __a, const void* __b, std::size_t) { auto* __x = "
         "static_cast<__Sel*>(__a); const auto* __y = static_cast<const "
         "__Sel*>(__b); if (__y->has) *__x = *__y; });");
    open("if (parade::local_thread_id() == 0 && __sel.has) {");
    line(spell(lp.var) + " = __sel.v;");
    close();
    line("parade::barrier(parade::BarrierScope::kNode);");
    close();
  }

  pop_scope();
  close();
  return Status::ok();
}

Status CodeGen::emit_sections(const Directive& d, const Stmt& body) {
  if (body.kind != StmtKind::kBlock) {
    return err(d.line, "omp sections needs a block body");
  }
  // Collect the section bodies.
  std::vector<const Stmt*> sections;
  for (const StmtPtr& child : body.children) {
    if (child->kind == StmtKind::kPragma &&
        child->directive.kind == DirectiveKind::kSection) {
      sections.push_back(child->children.front().get());
    } else if (child->kind != StmtKind::kEmpty) {
      // First statement before any `section` pragma forms section 0.
      sections.push_back(child.get());
    }
  }
  open("{");
  open("parade::parallel_for(0, " + std::to_string(sections.size()) +
       ", parade::Schedule{parade::ScheduleKind::kStaticChunk, 1}, "
       "[&](long __lo, long __hi) {");
  open("for (long __s = __lo; __s < __hi; ++__s) {");
  open("switch (__s) {");
  for (std::size_t i = 0; i < sections.size(); ++i) {
    open("case " + std::to_string(i) + ": {");
    push_scope();
    if (Status s = emit_stmt(*sections[i]); !s) return s;
    pop_scope();
    line("break;");
    close();
  }
  close();
  close();
  close("}, /*nowait=*/" +
        std::string(d.clauses.nowait ? "true" : "false") + ");");
  close();
  return Status::ok();
}

Status CodeGen::emit_single(const Directive& d, const Stmt& body) {
  // Scalars written inside the block travel in the broadcast payload
  // (paper Figure 3: executing node updates, MPI_Bcast propagates).
  std::set<std::string> written;
  collect_written_scalars(body, &written);

  open("{");
  std::string struct_body;
  std::vector<std::string> names(written.begin(), written.end());
  for (std::size_t i = 0; i < names.size(); ++i) {
    struct_body += type_of(names[i]) + " v" + std::to_string(i) + "; ";
  }
  if (names.empty()) struct_body = "char v0; ";
  line("struct __ParadeSingle { " + struct_body + "} __sgl{};");
  open("parade::single_small(&__sgl, sizeof(__sgl), [&]() {");
  push_scope();
  if (Status s = emit_stmt(body); !s) return s;
  for (std::size_t i = 0; i < names.size(); ++i) {
    line("__sgl.v" + std::to_string(i) + " = " + spell(names[i]) + ";");
  }
  pop_scope();
  close("});");
  if (!names.empty()) {
    open("if (parade::local_thread_id() == 0) {");
    for (std::size_t i = 0; i < names.size(); ++i) {
      line(spell(names[i]) + " = __sgl.v" + std::to_string(i) + ";");
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
  return Status::ok();
}

Status CodeGen::emit_critical(const Directive& d, const Stmt& body) {
  // Lexically analyzable single-update criticals map to collectives
  // (Figure 2 right); everything else falls back to the DSM lock. The
  // analyzer made the call for every site (type-, sharing- and size-aware:
  // declared size vs mp_threshold_bytes); follow it.
  const Stmt* stmt = &body;
  if (stmt->kind == StmtKind::kBlock && stmt->children.size() == 1) {
    stmt = stmt->children.front().get();
  }
  if (analysis_.sync_sites.at(d.line).collective &&
      stmt->kind == StmtKind::kRaw) {
    if (auto pattern = match_update(*stmt)) {
      const std::string type = type_of(pattern->var);
      open("{");
      line(type + " __contrib = (" + rewrite(pattern->expr) + ");");
      line("parade::team_allreduce_bytes(&__contrib, sizeof(__contrib), "
           "[](void* __a, const void* __b, std::size_t) { *static_cast<" +
           type + "*>(__a) = *static_cast<" + type + "*>(__a) " +
           pattern->combine_op + " *static_cast<const " + type +
           "*>(__b); });");
      open("if (parade::local_thread_id() == 0) {");
      line(spell(pattern->var) + " = " + spell(pattern->var) + " " +
           pattern->apply_op + " __contrib;");
      close();
      line("parade::barrier(parade::BarrierScope::kNode);");
      close();
      return Status::ok();
    }
  }
  const int lock_id = critical_lock_id(d.clauses.critical_name);
  open("{");
  line("parade::dsm_lock(" + std::to_string(lock_id) + ");");
  push_scope();
  if (Status s = emit_stmt(body); !s) return s;
  pop_scope();
  line("parade::dsm_unlock(" + std::to_string(lock_id) + ");");
  close();
  return Status::ok();
}

Status CodeGen::emit_atomic(const Directive& d, const Stmt& body) {
  const Stmt* stmt = &body;
  if (stmt->kind == StmtKind::kBlock && stmt->children.size() == 1) {
    stmt = stmt->children.front().get();
  }
  if (stmt->kind != StmtKind::kRaw) {
    return err(d.line, "omp atomic requires an expression statement");
  }
  auto pattern = match_update(*stmt);
  if (!pattern) {
    return err(d.line, "omp atomic statement is not a supported update "
                       "(x op= expr, x++, x = x op expr)");
  }
  // Identical machinery to the analyzable critical (paper: atomic is a
  // special case of critical, exactly mapped to a collective).
  Directive as_critical = d;
  return emit_critical(as_critical, body);
}

Status CodeGen::emit_pragma(const Stmt& stmt) {
  const Directive& d = stmt.directive;
  switch (d.kind) {
    case DirectiveKind::kParallel:
      return emit_parallel(d, *stmt.children.front());
    case DirectiveKind::kParallelFor: {
      // parallel for == parallel { for }.
      Directive par = d;
      open("{");
      std::vector<std::string> fp_tmps;
      // Keep it simple: delegate the whole clause set to the inner `for`
      // inside a clause-less parallel.
      open("parade::parallel([&]() {");
      push_scope();
      Directive inner = d;
      inner.kind = DirectiveKind::kFor;
      Status s = emit_for(inner, *stmt.children.front());
      pop_scope();
      close("});");
      close();
      return s;
    }
    case DirectiveKind::kFor:
      return emit_for(d, *stmt.children.front());
    case DirectiveKind::kParallelSections: {
      open("parade::parallel([&]() {");
      push_scope();
      Directive inner = d;
      inner.kind = DirectiveKind::kSections;
      Status s = emit_sections(inner, *stmt.children.front());
      pop_scope();
      close("});");
      return s;
    }
    case DirectiveKind::kSections:
      return emit_sections(d, *stmt.children.front());
    case DirectiveKind::kSection:
      return err(d.line, "omp section outside sections");
    case DirectiveKind::kSingle:
      return emit_single(d, *stmt.children.front());
    case DirectiveKind::kMaster:
      open("if (parade::node_id() == 0 && parade::local_thread_id() == 0) {");
      push_scope();
      if (Status s = emit_stmt(*stmt.children.front()); !s) return s;
      pop_scope();
      close();
      return Status::ok();
    case DirectiveKind::kCritical:
      return emit_critical(d, *stmt.children.front());
    case DirectiveKind::kAtomic:
      return emit_atomic(d, *stmt.children.front());
    case DirectiveKind::kBarrier:
      line("parade::barrier();");
      return Status::ok();
    case DirectiveKind::kFlush:
      line("parade::barrier(); /* flush approximated by a global barrier */");
      return Status::ok();
    case DirectiveKind::kOrdered:
      line("/* ordered: static scheduling preserves chunk order per thread */");
      return emit_stmt(*stmt.children.front());
    case DirectiveKind::kThreadprivate:
      return err(d.line, "threadprivate is not supported by this translator");
  }
  return err(d.line, "unhandled directive");
}

Status CodeGen::emit_stmt(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kBlock: {
      open("{");
      push_scope();
      if (Status s = emit_block_children(stmt); !s) return s;
      pop_scope();
      close();
      return Status::ok();
    }
    case StmtKind::kRaw:
      line(rewrite(*tokens_, stmt.text.span) + ";");
      return Status::ok();
    case StmtKind::kDecl:
      return emit_decl(stmt);
    case StmtKind::kFor: {
      const ForHeader& h = stmt.for_header;
      line("for (" + rewrite(h.init_text) + "; " + rewrite(h.cond_text) +
           "; " + rewrite(h.incr_text) + ")");
      push_scope();
      if (h.canonical && !h.var_decl_type.empty()) {
        declare(h.loop_var, Symbol{h.var_decl_type, 0, false, false, false});
      }
      Status s = emit_stmt(*stmt.children.front());
      pop_scope();
      return s;
    }
    case StmtKind::kIf: {
      line("if (" + rewrite(stmt.cond) + ")");
      if (Status s = emit_stmt(*stmt.children[0]); !s) return s;
      if (stmt.has_else) {
        line("else");
        return emit_stmt(*stmt.children[1]);
      }
      return Status::ok();
    }
    case StmtKind::kWhile: {
      line("while (" + rewrite(stmt.cond) + ")");
      return emit_stmt(*stmt.children.front());
    }
    case StmtKind::kDoWhile: {
      line("do");
      if (Status s = emit_stmt(*stmt.children.front()); !s) return s;
      line("while (" + rewrite(stmt.cond) + ");");
      return Status::ok();
    }
    case StmtKind::kSwitch: {
      line("switch (" + rewrite(stmt.cond) + ")");
      return emit_stmt(*stmt.children.front());
    }
    case StmtKind::kPragma:
      return emit_pragma(stmt);
    case StmtKind::kHashLine:
      line(stmt.text.text);
      return Status::ok();
    case StmtKind::kEmpty:
      line(";");
      return Status::ok();
  }
  return Status::ok();
}

Status CodeGen::emit_block_children(const Stmt& block) {
  for (const StmtPtr& child : block.children) {
    if (Status s = emit_stmt(*child); !s) return s;
  }
  return Status::ok();
}

Result<std::string> CodeGen::run(const TranslationUnit& unit) {
  // Placement comes from the semantic analysis: which file-scope scalars are
  // written by unmanaged statements inside parallel regions (DSM pool), and
  // which globals are threadprivate.
  std::unordered_set<std::string> dsm_scalars;
  std::unordered_set<std::string> threadprivate_names;
  for (const auto& [name, vc] : analysis_.globals) {
    if (vc.placement == Placement::kDsmScalar) dsm_scalars.insert(name);
    if (vc.placement == Placement::kThreadprivate) {
      threadprivate_names.insert(name);
    }
  }

  tokens_ = &unit.tokens;
  push_scope();  // file scope
  line("// Generated by parade_omcc (ParADE OpenMP translator). Do not edit.");
  line("#include \"" + options_.support_include + "\"");
  line("");

  for (const TopItem& item : unit.items) {
    switch (item.kind) {
      case TopItem::Kind::kHashLine:
        line(item.text);
        break;
      case TopItem::Kind::kRaw:
        line(rewrite(*tokens_, item.stmt->text.span) + ";");
        break;
      case TopItem::Kind::kPragma: {
        if (item.stmt->directive.kind == DirectiveKind::kThreadprivate) {
          line("// threadprivate: handled at the declarations above");
          break;
        }
        return err(item.stmt->directive.line,
                   "OpenMP directive at file scope");
      }
      case TopItem::Kind::kDecl: {
        // File-scope data: arrays go to the DSM pool; scalars/pointers become
        // node-replicated (paper §5.2: page consistency for large data,
        // update-by-collective for small synchronization-managed data).
        const Stmt& decl = *item.stmt;
        for (const Declarator& d : decl.declarators) {
          if (d.is_function) {
            // Prototype: emit verbatim-ish.
            line(decl.decl_type.text + " " + d.name + "();");
            continue;
          }
          Symbol symbol;
          symbol.type = decl.decl_type.text;
          symbol.pointer_depth = d.pointer_depth;
          if (!d.array_dims.empty()) {
            if (!d.init.empty()) {
              return err(decl.line, "initialized global arrays are not "
                                    "supported (move init into main)");
            }
            // DSM placement: emit a replicated pointer + pool allocation.
            symbol.is_array = false;
            symbol.pointer_depth = 1;
            symbol.replicated_global = true;
            declare(d.name, symbol);
            std::string elem_type = value_type_of(decl.decl_type.text);
            for (int i = 0; i < d.pointer_depth; ++i) elem_type += "*";
            std::string suffix;
            for (std::size_t dim = 1; dim < d.array_dims.size(); ++dim) {
              suffix += "[" + d.array_dims[dim].text + "]";
            }
            const std::string full_type =
                "decltype(static_cast<" + elem_type + " (*)" + suffix +
                ">(nullptr))";
            line("static parade::xlat::Replicated<" + full_type + "> __prep_" +
                 d.name + ";");
            std::string size_expr = "sizeof(" + elem_type + ")";
            for (const Expr& dim : d.array_dims) {
              size_expr += " * (" + dim.text + ")";
            }
            shared_init_lines_.push_back(
                "__prep_" + d.name + ".get() = reinterpret_cast<" + elem_type +
                " (*)" + suffix + ">(parade::shmalloc(" + size_expr + "));");
          } else if (threadprivate_names.count(d.name) > 0) {
            // OpenMP threadprivate: one instance per thread, no rewriting.
            symbol.threadprivate = true;
            declare(d.name, symbol);
            std::string full_type = value_type_of(decl.decl_type.text);
            for (int i = 0; i < d.pointer_depth; ++i) full_type += "*";
            std::string dims;
            for (const Expr& dim : d.array_dims) dims += "[" + dim.text + "]";
            line("static thread_local " + full_type + " " + d.name + dims +
                 (d.init.empty() ? "" : " = " + d.init.text) + ";");
          } else if (d.pointer_depth == 0 && dsm_scalars.count(d.name) > 0) {
            // Written by unmanaged parallel code: place in the DSM pool.
            symbol.dsm_scalar = true;
            declare(d.name, symbol);
            const std::string vt = value_type_of(decl.decl_type.text);
            line("static parade::xlat::Replicated<" + vt + "*> __pdsm_" +
                 d.name + ";");
            shared_init_lines_.push_back(
                "__pdsm_" + d.name + ".get() = static_cast<" + vt +
                "*>(parade::shmalloc(sizeof(" + vt + ")));");
            if (!d.init.empty()) {
              shared_init_lines_.push_back(
                  "if (parade::node_id() == 0) { *__pdsm_" + d.name +
                  ".get() = " + d.init.text + "; }");
            }
          } else {
            symbol.replicated_global = true;
            declare(d.name, symbol);
            std::string full_type = value_type_of(decl.decl_type.text);
            for (int i = 0; i < d.pointer_depth; ++i) full_type += "*";
            if (d.init.empty()) {
              line("static parade::xlat::Replicated<" + full_type +
                   "> __prep_" + d.name + ";");
            } else {
              line("static parade::xlat::Replicated<" + full_type +
                   "> __prep_" + d.name + "{static_cast<" + full_type + ">(" +
                   d.init.text + ")};");
            }
          }
        }
        break;
      }
      case TopItem::Kind::kFunction: {
        const FunctionDef& fn = item.function;
        const bool is_main = text_is(fn.name, "main");
        if (is_main) {
          saw_main_ = true;
          user_main_params_ = fn.params.text;
        }
        const std::string name = is_main ? "__parade_user_main" : fn.name;
        std::string ret =
            fn.ret_type.empty() ? std::string("int") : fn.ret_type;
        if (is_main) ret = "static int";
        line(ret + " " + name + "(" + fn.params.text + ")");
        push_scope();
        for (const Param& p : fn.param_list) {
          // The '*'s stay in the type text, which type_of spells as is.
          Symbol symbol;
          symbol.type = p.type;
          symbol.is_array = p.is_array;
          declare(p.name, symbol);
        }
        if (Status s = emit_stmt(*fn.body); !s) return s;
        pop_scope();
        line("");
        break;
      }
    }
  }

  // Shared-pool initialisation (runs once per node, before user main).
  line("static void __parade_shared_init() {");
  ++indent_;
  for (const std::string& init : shared_init_lines_) line(init);
  if (!shared_init_lines_.empty()) {
    // Publish node 0's initial values before user code touches the pool.
    line("parade::barrier();");
  }
  --indent_;
  line("}");
  line("");

  if (options_.emit_main_wrapper && saw_main_) {
    const bool wants_args = user_main_params_.find("argc") != std::string::npos;
    line("int main(int argc, char** argv) {");
    ++indent_;
    line("(void)argc; (void)argv;");
    line(std::string("return parade::xlat::launch([&]() -> int { "
                     "__parade_shared_init(); return __parade_user_main(") +
         (wants_args ? "argc, argv" : "") + "); });");
    --indent_;
    line("}");
  }

  pop_scope();
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

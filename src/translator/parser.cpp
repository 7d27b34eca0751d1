#include "translator/parser.hpp"

#include <algorithm>

namespace parade::translator {
namespace {

bool no_space_before(const Token& t) {
  return t.is(";") || t.is(",") || t.is(")") || t.is("]") || t.is("++") ||
         t.is("--") || t.is(".") || t.is("->") || t.is("(") || t.is("[");
}

bool no_space_after(const Token& t) {
  return t.is("(") || t.is("[") || t.is(".") || t.is("->") || t.is("!") ||
         t.is("~");
}

/// A prefix ++/-- right after an operator keeps a space before it:
/// `a + ++b` glued would read `a +++ b`, which C lexes as `a++ + b`. After
/// `)` or `]` the token is postfix and glues to its operand.
bool prefix_after_operator(const std::vector<Token>& tokens, std::size_t begin,
                           std::size_t i) {
  if (i == begin || (!tokens[i].is("++") && !tokens[i].is("--"))) {
    return false;
  }
  const Token& prev = tokens[i - 1];
  return prev.kind == TokKind::kPunct && !prev.is(")") && !prev.is("]");
}

/// Byte size of the common fixed-width typedef names; 0 for any other.
std::size_t typedef_size(std::string_view name) {
  struct Entry {
    std::string_view name;
    std::size_t bytes;
  };
  static constexpr Entry kSizes[] = {
      {"size_t", 8},    {"ssize_t", 8}, {"ptrdiff_t", 8}, {"intptr_t", 8},
      {"uintptr_t", 8}, {"int8_t", 1},  {"uint8_t", 1},   {"int16_t", 2},
      {"uint16_t", 2},  {"int32_t", 4}, {"uint32_t", 4},  {"int64_t", 8},
      {"uint64_t", 8},  {"wchar_t", 4}};
  for (const Entry& e : kSizes) {
    if (e.name == name) return e.bytes;
  }
  return 0;
}

bool is_assign_op(const Token& t) {
  return t.is("=") || t.is("+=") || t.is("-=") || t.is("*=") || t.is("/=") ||
         t.is("%=") || t.is("&=") || t.is("|=") || t.is("^=") ||
         t.is("<<=") || t.is(">>=");
}

/// Parses a token stream into the unit that owns it: every node comes from
/// the unit's pools, every expression's access records go to its
/// AccessPool, and every name is a symbol id.
class Parser {
 public:
  explicit Parser(TranslationUnit& unit)
      : unit_(unit), tokens_(unit.tokens) {}

  Status parse_unit();

 private:
  const Token& cur() const { return tokens_[pos_]; }
  const Token& ahead(std::size_t n) const {
    const std::size_t at = std::min(pos_ + n, tokens_.size() - 1);
    return tokens_[at];
  }
  void advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool at_eof() const { return cur().kind == TokKind::kEof; }

  Status error(const std::string& message) const {
    return make_error(ErrorCode::kInvalidArgument,
                      message + " at line " + std::to_string(cur().line));
  }

  Stmt* make(StmtKind kind, int line) {
    Stmt* stmt = unit_.stmts.make();
    stmt->kind = kind;
    stmt->line = line;
    return stmt;
  }

  /// Consumes tokens until the one-character punct `stop` at paren/bracket
  /// depth 0 and returns their span (stop not consumed unless consume_stop,
  /// never in the span).
  TokenSpan consume_until(char stop, bool consume_stop);

  /// An expression over `span` with no access records (types, parameter
  /// lists, labels).
  static Expr text_of(TokenSpan span) {
    Expr e;
    e.span = span;
    return e;
  }
  /// An expression over `span` with its access records appended to the
  /// unit's pool.
  Expr expr(TokenSpan span);
  /// The suffix of header part `part` from token k on, sharing the part's
  /// records: the first `skip_reads` reads and `skip_writes` writes belong
  /// to the prefix.
  static Expr suffix(const Expr& part, std::size_t k, std::uint32_t skip_reads,
                     std::uint32_t skip_writes);

  Result<Stmt*> parse_statement();
  Result<Stmt*> parse_block();
  Result<Stmt*> parse_declaration();
  Result<Stmt*> parse_for();
  Result<Stmt*> parse_label();
  Result<Stmt*> parse_pragma_stmt();
  void canonicalize_for(ForHeader& header) const;
  std::vector<Param> split_params(TokenSpan params) const;
  void intern_clause_vars(Clauses& c);

  bool looks_like_declaration() const;

  TranslationUnit& unit_;
  const std::vector<Token>& tokens_;
  std::size_t pos_ = 0;
  std::vector<char> skip_read_;  // expr()'s scratch, reused across calls
};

Expr Parser::expr(TokenSpan span) {
  AccessPool& pool = unit_.accesses;
  Expr e;
  e.span = span;
  e.reads = static_cast<std::uint32_t>(pool.reads.size());
  e.writes = static_cast<std::uint32_t>(pool.writes.size());
  e.subscripts = static_cast<std::uint32_t>(pool.subscripts.size());

  const std::size_t n = span.end - span.begin;
  auto at = [&](std::size_t k) -> const Token& {
    return tokens_[span.begin + k];
  };
  auto write = [&](const Token& t, bool array, bool member, bool deref) {
    pool.writes.push_back({t.sym, array, member, deref});
  };
  skip_read_.assign(n, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = at(i);
    if (t.kind == TokKind::kIdent && i + 1 < n && at(i + 1).is_punct("(")) {
      e.has_call = true;
      skip_read_[i] = 1;  // call target, not a data read
      continue;
    }
    const bool next_assign = i + 1 < n && at(i + 1).kind == TokKind::kPunct &&
                             is_assign_op(at(i + 1));
    const bool next_incdec =
        i + 1 < n && (at(i + 1).is_punct("++") || at(i + 1).is_punct("--"));
    if (t.kind == TokKind::kIdent && (next_assign || next_incdec)) {
      const bool after_member =
          i > 0 && (at(i - 1).is_punct(".") || at(i - 1).is_punct("->"));
      const bool after_deref =
          i > 0 && at(i - 1).is_punct("*") &&
          (i == 1 || at(i - 2).kind == TokKind::kPunct);
      if (after_member) {
        // s.f = v: a store into a member of `s` (only the simple one-level
        // form is attributed; deeper chains are left to page consistency).
        if (i >= 2 && at(i - 1).is_punct(".") &&
            at(i - 2).kind == TokKind::kIdent) {
          write(at(i - 2), false, true, false);
        }
        skip_read_[i] = 1;
        continue;
      }
      if (after_deref) {
        write(t, false, false, true);
        continue;
      }
      write(t, false, false, false);
      if (next_assign && at(i + 1).is("=")) skip_read_[i] = 1;
      continue;
    }
    // Prefix ++x / --x.
    if ((t.is_punct("++") || t.is_punct("--")) && i + 1 < n &&
        at(i + 1).kind == TokKind::kIdent) {
      const bool postfix_of_prev =
          i > 0 && (at(i - 1).kind == TokKind::kIdent ||
                    at(i - 1).is_punct(")") || at(i - 1).is_punct("]"));
      if (!postfix_of_prev) write(at(i + 1), false, false, false);
      continue;
    }
    // a[...] = / a[...] op= / a[...]++ : subscript store, attribute the base.
    if (t.is_punct("]") && i + 1 < n &&
        ((at(i + 1).kind == TokKind::kPunct && is_assign_op(at(i + 1))) ||
         at(i + 1).is_punct("++") || at(i + 1).is_punct("--"))) {
      int depth = 0;
      std::size_t j = i;
      for (;;) {
        if (at(j).is_punct("]")) ++depth;
        else if (at(j).is_punct("[")) {
          --depth;
          if (depth == 0) break;
        }
        if (j == 0) break;
        --j;
      }
      // Chained subscripts (a[i][j] = ...) unwind group by group to the base.
      while (depth == 0 && j > 0 && at(j - 1).is_punct("]")) {
        --j;
        ++depth;
        while (j > 0) {
          --j;
          if (at(j).is_punct("]")) ++depth;
          else if (at(j).is_punct("[") && --depth == 0) break;
        }
      }
      if (depth == 0 && j > 0 && at(j - 1).kind == TokKind::kIdent) {
        write(at(j - 1), true, false, false);
      }
      continue;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (at(i).kind != TokKind::kIdent || skip_read_[i] != 0) continue;
    if (i > 0 && (at(i - 1).is_punct(".") || at(i - 1).is_punct("->"))) {
      continue;  // member name, the base identifier is the read
    }
    pool.reads.push_back(at(i).sym);
  }

  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (at(i).kind != TokKind::kIdent || !at(i + 1).is_punct("[")) continue;
    // Consecutive groups chain: grid[i][j] contributes both i and j.
    int depth = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (at(j).is_punct("[")) {
        ++depth;
      } else if (at(j).is_punct("]")) {
        if (--depth == 0 && (j + 1 >= n || !at(j + 1).is_punct("["))) break;
      } else if (depth > 0 && at(j).kind == TokKind::kIdent) {
        const AccessSubscript pair{at(i).sym, at(j).sym};
        const bool seen = std::any_of(
            pool.subscripts.begin() + e.subscripts, pool.subscripts.end(),
            [&](const AccessSubscript& s) {
              return s.array == pair.array && s.ident == pair.ident;
            });
        if (!seen) pool.subscripts.push_back(pair);
      }
    }
  }
  e.n_reads = static_cast<std::uint32_t>(pool.reads.size()) - e.reads;
  e.n_writes = static_cast<std::uint32_t>(pool.writes.size()) - e.writes;
  e.n_subscripts =
      static_cast<std::uint32_t>(pool.subscripts.size()) - e.subscripts;
  return e;
}

Expr Parser::suffix(const Expr& part, std::size_t k, std::uint32_t skip_reads,
                    std::uint32_t skip_writes) {
  Expr e = part;
  e.span.begin = std::min(part.span.begin + k, part.span.end);
  skip_reads = std::min(skip_reads, part.n_reads);
  skip_writes = std::min(skip_writes, part.n_writes);
  e.reads += skip_reads;
  e.n_reads -= skip_reads;
  e.writes += skip_writes;
  e.n_writes -= skip_writes;
  return e;
}

TokenSpan Parser::consume_until(char stop, bool consume_stop) {
  const std::size_t begin = pos_;
  int depth = 0;
  while (!at_eof()) {
    const Token& t = cur();
    if (t.kind == TokKind::kPunct) {
      if (t.is("(") || t.is("[")) {
        ++depth;
      } else if (t.is(")") || t.is("]")) {
        // At depth 0 this is `stop` or an unbalanced closer; either way stop
        // here rather than run away.
        if (depth == 0) break;
        --depth;
      } else if (depth == 0 && t.text.size() == 1 && t.text[0] == stop) {
        break;
      }
    }
    advance();
  }
  const TokenSpan span{begin, pos_};
  if (consume_stop && !at_eof()) advance();
  return span;
}

bool Parser::looks_like_declaration() const {
  const Token& t = cur();
  if (t.kind == TokKind::kKeyword && is_decl_start_keyword(t.text)) return true;
  // "Type name ..." with a known typedef-ish pattern: ident ident.
  if (t.kind == TokKind::kIdent && ahead(1).kind == TokKind::kIdent) {
    return true;
  }
  return false;
}

Result<Stmt*> Parser::parse_block() {
  Stmt* block = make(StmtKind::kBlock, cur().line);
  advance();  // '{'
  Stmt** tail = &block->first_child;
  while (!at_eof() && !cur().is_punct("}")) {
    auto stmt = parse_statement();
    if (!stmt.is_ok()) return stmt.status();
    *tail = stmt.value();
    tail = &(*tail)->next;
  }
  if (at_eof()) return error("unterminated block");
  advance();  // '}'
  return block;
}

Result<Stmt*> Parser::parse_declaration() {
  Stmt* stmt = make(StmtKind::kDecl, cur().line);
  Decl* decl = unit_.decls.make();
  stmt->decl = decl;

  // Base type: leading keywords (+ struct/union/enum tag, + one identifier
  // for typedef names when followed by a declarator-ish token).
  const std::size_t type_begin = pos_;
  while (!at_eof()) {
    const Token& t = cur();
    if (t.kind == TokKind::kKeyword && is_decl_start_keyword(t.text)) {
      const bool tagged = t.is("struct") || t.is("union") || t.is("enum");
      advance();
      if (tagged) {
        if (cur().kind == TokKind::kIdent) advance();
        if (cur().is_punct("{")) {
          return error("struct definitions in declarations are unsupported");
        }
      }
      continue;
    }
    break;
  }
  if (pos_ == type_begin ||
      (pos_ == type_begin + 1 && (tokens_[type_begin].is("static") ||
                                  tokens_[type_begin].is("const")))) {
    // typedef-name base type: "Type x" pattern.
    if (cur().kind == TokKind::kIdent && ahead(1).kind == TokKind::kIdent) {
      advance();
    }
  }
  if (pos_ == type_begin) return error("expected declaration");
  decl->type = parse_decl_type(tokens_, {type_begin, pos_});
  decl->declarators = static_cast<std::uint32_t>(unit_.declarators.size());

  // Declarators separated by commas, terminated by ';'.
  for (;;) {
    Declarator d;
    while (cur().is_punct("*")) {
      ++d.pointer_depth;
      advance();
    }
    if (cur().kind != TokKind::kIdent) {
      return error("expected declarator name after '" +
                   render_tokens(tokens_, type_begin, decl->type.span.end) +
                   "'");
    }
    d.name = cur().sym;
    advance();
    if (cur().is_punct("(")) {
      // Function prototype: swallow the parameter list.
      d.is_function = true;
      advance();
      (void)consume_until(')', /*consume_stop=*/true);
    }
    d.dims = static_cast<std::uint32_t>(unit_.dims.size());
    while (cur().is_punct("[")) {
      advance();
      unit_.dims.push_back(expr(consume_until(']', /*consume_stop=*/true)));
      ++d.n_dims;
    }
    if (cur().is_punct("=")) {
      advance();
      // Initializer up to ',' or ';' at depth 0 (brace initializers kept raw).
      const std::size_t init_begin = pos_;
      int depth = 0;
      while (!at_eof()) {
        const Token& t = cur();
        if (t.kind == TokKind::kPunct) {
          if (t.is("(") || t.is("[") || t.is("{")) ++depth;
          if (t.is(")") || t.is("]") || t.is("}")) --depth;
          if (depth == 0 && (t.is(",") || t.is(";"))) break;
        }
        advance();
      }
      d.init = expr({init_begin, pos_});
    }
    unit_.declarators.push_back(d);
    ++decl->n_declarators;
    if (cur().is_punct(",")) {
      advance();
      continue;
    }
    if (cur().is_punct(";")) {
      advance();
      break;
    }
    return error("expected ',' or ';' in declaration");
  }
  return stmt;
}

void Parser::canonicalize_for(ForHeader& h) const {
  // Reads past the end of a header part see the ';' that ended it.
  static const Token kEnd{TokKind::kPunct, kNoSym, ";", 0, 0};
  auto tok = [&](const Expr& part, std::size_t k) -> const Token& {
    const std::size_t at = part.span.begin + k;
    return at < part.span.end ? tokens_[at] : kEnd;
  };
  const Expr& init = h.init_text;
  const Expr& cond = h.cond_text;
  const Expr& incr = h.incr_text;

  // init: [type] var = lower
  std::size_t i = 0;
  while (tok(init, i).kind == TokKind::kKeyword &&
         is_decl_start_keyword(tok(init, i).text)) {
    ++i;
  }
  const std::size_t type_end = init.span.begin + i;
  if (tok(init, i).kind != TokKind::kIdent) return;
  const Sym var = tok(init, i).sym;
  ++i;
  if (!tok(init, i).is_punct("=")) return;
  ++i;
  int paren_depth = 0;
  for (std::size_t k = i; init.span.begin + k < init.span.end; ++k) {
    if (tok(init, k).is_punct("(")) ++paren_depth;
    if (tok(init, k).is_punct(")")) --paren_depth;
    // A top-level comma means a multi-clause init (i = 0, j = 1): not
    // canonical.
    if (paren_depth == 0 && tok(init, k).is_punct(",")) return;
  }
  const std::size_t lower_at = i;

  // cond: var < / <= / > / >= bound
  if (tok(cond, 0).sym != var) return;
  const Token& rel = tok(cond, 1);
  if (!rel.is("<") && !rel.is("<=") && !rel.is(">") && !rel.is(">=")) return;

  // incr: var++ / ++var / var-- / --var / var += s / var -= s /
  //       var = var + s / var = var - s
  std::size_t step_at = 0;  // 0: implicit step 1
  bool increasing = true;
  if (tok(incr, 0).sym == var && tok(incr, 1).is_punct("++")) {
  } else if (tok(incr, 0).is_punct("++") && tok(incr, 1).sym == var) {
  } else if (tok(incr, 0).sym == var && tok(incr, 1).is_punct("--")) {
    increasing = false;
  } else if (tok(incr, 0).is_punct("--") && tok(incr, 1).sym == var) {
    increasing = false;
  } else if (tok(incr, 0).sym == var &&
             (tok(incr, 1).is_punct("+=") || tok(incr, 1).is_punct("-="))) {
    increasing = tok(incr, 1).is("+=");
    step_at = 2;
  } else if (tok(incr, 0).sym == var && tok(incr, 1).is_punct("=") &&
             tok(incr, 2).sym == var &&
             (tok(incr, 3).is_punct("+") || tok(incr, 3).is_punct("-"))) {
    increasing = tok(incr, 3).is("+");
    step_at = 4;
  } else {
    return;
  }
  // Direction must agree with the relation.
  if (increasing && (rel.is(">") || rel.is(">="))) return;
  if (!increasing && (rel.is("<") || rel.is("<="))) return;

  h.canonical = true;
  h.loop_var = var;
  if (type_end > init.span.begin) {
    h.var_type = parse_decl_type(tokens_, {init.span.begin, type_end});
  }
  // The prefixes hold no subscript and no call. `[type] var =` writes var;
  // `var rel` reads it; `var op= ` and `var = var op ` write it and read it
  // once.
  h.lower = suffix(init, lower_at, 0, 1);
  h.upper = suffix(cond, 2, 1, 0);
  h.inclusive = rel.is("<=") || rel.is(">=");
  h.increasing = increasing;
  if (step_at == 0) {
    h.unit_step = true;
  } else {
    h.step = suffix(incr, step_at, 1, 1);
  }
}

std::vector<Param> Parser::split_params(TokenSpan params) const {
  std::vector<Param> out;
  if (params.empty() ||
      (params.end == params.begin + 1 && tokens_[params.begin].is("void"))) {
    return out;
  }
  std::size_t group = params.begin;
  for (std::size_t k = group; k <= params.end; ++k) {
    if (k < params.end && !tokens_[k].is_punct(",")) continue;
    // Tokens [group, k) are one parameter; its last identifier is the name.
    for (std::size_t i = k; i-- > group;) {
      if (tokens_[i].kind != TokKind::kIdent) continue;
      Param p;
      p.name = tokens_[i].sym;
      p.type = parse_decl_type(tokens_, {group, i});
      for (std::size_t t = group; t < i; ++t) {
        if (tokens_[t].is_punct("*")) ++p.pointer_depth;
      }
      p.is_array = i + 1 < k && tokens_[i + 1].is_punct("[");
      out.push_back(std::move(p));
      break;
    }
    group = k + 1;
  }
  return out;
}

Result<Stmt*> Parser::parse_for() {
  Stmt* stmt = make(StmtKind::kFor, cur().line);
  ForHeader* h = unit_.fors.make();
  stmt->for_header = h;
  advance();  // 'for'
  if (!cur().is_punct("(")) return error("expected '(' after for");
  advance();
  h->init_text = expr(consume_until(';', /*consume_stop=*/true));
  h->cond_text = expr(consume_until(';', /*consume_stop=*/true));
  h->incr_text = expr(consume_until(')', /*consume_stop=*/true));
  canonicalize_for(*h);
  auto body = parse_statement();
  if (!body.is_ok()) return body.status();
  stmt->first_child = body.value();
  return stmt;
}

Result<Stmt*> Parser::parse_label() {
  Stmt* stmt = make(StmtKind::kLabel, cur().line);
  const std::size_t begin = pos_;
  if (cur().is_kw("case")) {
    // The label ends at the first ':' at depth 0 that closes no `?`.
    advance();
    int depth = 0;
    int ternaries = 0;
    while (!at_eof()) {
      const Token& t = cur();
      if (t.kind == TokKind::kPunct) {
        if (t.is("(") || t.is("[")) {
          ++depth;
        } else if (t.is(")") || t.is("]")) {
          --depth;
        } else if (depth == 0 && t.is("?")) {
          ++ternaries;
        } else if (depth == 0 && t.is(":")) {
          if (ternaries == 0) break;
          --ternaries;
        } else if (t.is(";") || t.is("{") || t.is("}")) {
          return error("expected ':' after case");
        }
      }
      advance();
    }
    if (at_eof()) return error("expected ':' after case");
  } else {
    advance();  // `default` or the label name; cur() is the ':'
  }
  advance();  // ':'
  stmt->expr = text_of({begin, pos_});
  // The labeled statement, which may itself be a directive.
  if (!at_eof() && !cur().is_punct("}")) {
    auto body = parse_statement();
    if (!body.is_ok()) return body.status();
    stmt->first_child = body.value();
  }
  return stmt;
}

void Parser::intern_clause_vars(Clauses& c) {
  for (std::vector<ClauseVar>* list :
       {&c.shared, &c.privates, &c.firstprivate, &c.lastprivate, &c.copyin,
        &c.flush_list}) {
    for (ClauseVar& v : *list) v.sym = unit_.symbols.intern(v.name);
  }
  for (auto& [op, v] : c.reductions) {
    (void)op;
    v.sym = unit_.symbols.intern(v.name);
  }
}

Result<Stmt*> Parser::parse_pragma_stmt() {
  Stmt* stmt = make(StmtKind::kPragma, cur().line);
  auto directive = parse_pragma(cur().text, cur().line);
  if (!directive.is_ok()) return directive.status();
  stmt->directive = unit_.directives.make();
  *stmt->directive = std::move(directive).value();
  intern_clause_vars(stmt->directive->clauses);
  advance();

  switch (stmt->directive->kind) {
    case DirectiveKind::kBarrier:
    case DirectiveKind::kFlush:
    case DirectiveKind::kThreadprivate:
      stmt->directive_has_body = false;
      break;
    default: {
      auto body = parse_statement();
      if (!body.is_ok()) return body.status();
      stmt->first_child = body.value();
      stmt->directive_has_body = true;
      break;
    }
  }
  return stmt;
}

Result<Stmt*> Parser::parse_statement() {
  const Token& t = cur();
  switch (t.kind) {
    case TokKind::kPragmaOmp:
      return parse_pragma_stmt();
    case TokKind::kHashLine: {
      Stmt* stmt = make(StmtKind::kHashLine, t.line);
      stmt->expr = text_of({pos_, pos_ + 1});
      advance();
      return stmt;
    }
    default:
      break;
  }
  if (t.is_punct("{")) return parse_block();
  if (t.is_punct(";")) {
    Stmt* stmt = make(StmtKind::kEmpty, t.line);
    advance();
    return stmt;
  }
  if (t.is_kw("case") || (t.is_kw("default") && ahead(1).is_punct(":")) ||
      (t.kind == TokKind::kIdent && ahead(1).is_punct(":"))) {
    return parse_label();
  }
  if (t.is_kw("for")) return parse_for();
  if (t.is_kw("if")) {
    Stmt* stmt = make(StmtKind::kIf, t.line);
    advance();
    if (!cur().is_punct("(")) return error("expected '(' after if");
    advance();
    stmt->expr = expr(consume_until(')', /*consume_stop=*/true));
    auto then_branch = parse_statement();
    if (!then_branch.is_ok()) return then_branch.status();
    stmt->first_child = then_branch.value();
    if (cur().is_kw("else")) {
      advance();
      auto else_branch = parse_statement();
      if (!else_branch.is_ok()) return else_branch.status();
      stmt->first_child->next = else_branch.value();
      stmt->has_else = true;
    }
    return stmt;
  }
  if (t.is_kw("while")) {
    Stmt* stmt = make(StmtKind::kWhile, t.line);
    advance();
    if (!cur().is_punct("(")) return error("expected '(' after while");
    advance();
    stmt->expr = expr(consume_until(')', /*consume_stop=*/true));
    auto body = parse_statement();
    if (!body.is_ok()) return body.status();
    stmt->first_child = body.value();
    return stmt;
  }
  if (t.is_kw("do")) {
    Stmt* stmt = make(StmtKind::kDoWhile, t.line);
    advance();
    auto body = parse_statement();
    if (!body.is_ok()) return body.status();
    stmt->first_child = body.value();
    if (!cur().is_kw("while")) return error("expected while after do body");
    advance();
    if (!cur().is_punct("(")) return error("expected '(' after do..while");
    advance();
    stmt->expr = expr(consume_until(')', /*consume_stop=*/true));
    if (cur().is_punct(";")) advance();
    return stmt;
  }
  if (t.is_kw("switch")) {
    Stmt* stmt = make(StmtKind::kSwitch, t.line);
    advance();
    if (!cur().is_punct("(")) return error("expected '(' after switch");
    advance();
    stmt->expr = expr(consume_until(')', /*consume_stop=*/true));
    auto body = parse_statement();
    if (!body.is_ok()) return body.status();
    stmt->first_child = body.value();
    return stmt;
  }
  if (looks_like_declaration()) return parse_declaration();

  // Raw statement: everything through ';' at depth 0. Covers expressions,
  // return, break, continue and goto.
  Stmt* stmt = make(StmtKind::kRaw, t.line);
  stmt->expr = expr(consume_until(';', /*consume_stop=*/true));
  return stmt;
}

Status Parser::parse_unit() {
  std::vector<TopItem>& items = unit_.items;
  while (!at_eof()) {
    const Token& t = cur();
    if (t.kind == TokKind::kHashLine) {
      TopItem item;
      item.kind = TopItem::Kind::kHashLine;
      item.token = pos_;
      items.push_back(std::move(item));
      advance();
      continue;
    }
    if (t.kind == TokKind::kPragmaOmp) {
      auto stmt = parse_pragma_stmt();
      if (!stmt.is_ok()) return stmt.status();
      TopItem item;
      item.kind = TopItem::Kind::kPragma;
      item.stmt = stmt.value();
      items.push_back(std::move(item));
      continue;
    }

    // Function definition or declaration: scan ahead for "name ( ... ) {".
    std::size_t probe = pos_;
    int paren_depth = 0;
    bool is_function = false;
    std::size_t name_at = 0;
    while (probe < tokens_.size()) {
      const Token& p = tokens_[probe];
      if (p.kind == TokKind::kEof) break;
      if (p.is_punct(";") && paren_depth == 0) break;
      if (p.is_punct("=") && paren_depth == 0) break;
      if (p.is_punct("(")) {
        if (paren_depth == 0 && probe > pos_ &&
            tokens_[probe - 1].kind == TokKind::kIdent) {
          name_at = probe - 1;
        }
        ++paren_depth;
      } else if (p.is_punct(")")) {
        --paren_depth;
        if (paren_depth == 0) {
          // After the parameter list: '{' means definition.
          std::size_t after = probe + 1;
          if (after < tokens_.size() && tokens_[after].is_punct("{")) {
            is_function = name_at != 0;
          }
          break;
        }
      } else if (p.is_punct("{") && paren_depth == 0) {
        break;
      }
      ++probe;
    }

    if (is_function) {
      TopItem item;
      item.kind = TopItem::Kind::kFunction;
      FunctionDef& fn = item.function;
      fn.line = t.line;
      fn.ret_type = {pos_, name_at};
      fn.name = tokens_[name_at].sym;
      pos_ = name_at + 1;  // at '('
      advance();           // past '('
      fn.params = consume_until(')', /*consume_stop=*/true);
      fn.param_list = split_params(fn.params);
      if (!cur().is_punct("{")) return error("expected function body");
      auto body = parse_block();
      if (!body.is_ok()) return body.status();
      fn.body = body.value();
      items.push_back(std::move(item));
      continue;
    }

    // Top-level declaration.
    if (looks_like_declaration()) {
      auto decl = parse_declaration();
      if (!decl.is_ok()) return decl.status();
      TopItem item;
      item.kind = TopItem::Kind::kDecl;
      item.stmt = decl.value();
      items.push_back(std::move(item));
      continue;
    }
    // Anything else (stray semicolons, extern "C" etc.): raw until ';'.
    TopItem item;
    item.kind = TopItem::Kind::kRaw;
    item.stmt = make(StmtKind::kRaw, t.line);
    item.stmt->expr = expr(consume_until(';', /*consume_stop=*/true));
    items.push_back(std::move(item));
  }
  return Status::ok();
}

}  // namespace

bool space_before(const std::vector<Token>& tokens, std::size_t begin,
                  std::size_t i) {
  return (!no_space_before(tokens[i]) ||
          prefix_after_operator(tokens, begin, i)) &&
         !no_space_after(tokens[i - 1]);
}

std::string render_tokens(const std::vector<Token>& tokens, std::size_t begin,
                          std::size_t end) {
  std::string out;
  render_tokens(out, tokens, begin, end,
                [](const Token& t, std::string& to) { to += t.text; });
  return out;
}

DeclType parse_decl_type(const std::vector<Token>& tokens, TokenSpan span) {
  DeclType type;
  type.span = span;
  // The type's words are the runs of tokens its rendering glues together.
  int longs = 0;
  bool has_double = false, has_float = false, has_char = false;
  bool has_short = false, has_int = false, has_sign = false, has_bool = false;
  bool has_aggregate = false, has_enum = false;
  std::size_t words = 0;
  std::string_view only_word;
  for (std::size_t i = span.begin; i < span.end;) {
    std::size_t j = i + 1;
    while (j < span.end && !space_before(tokens, span.begin, j)) ++j;
    const std::string_view w =
        j == i + 1 ? std::string_view(tokens[i].text) : std::string_view();
    if (j == i + 1 && is_type_qualifier(w)) {
      i = j;
      continue;
    }
    ++words;
    only_word = w;
    if (!type.value.empty()) type.value += ' ';
    if (text_is(w, "omp_lock_t") || text_is(w, "omp_nest_lock_t")) {
      type.value += "parade::ompshim::";
    }
    for (std::size_t k = i; k < j; ++k) type.value += tokens[k].text;
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
    i = j;
  }
  if (type.value.empty()) type.value = render_tokens(tokens, span.begin, span.end);

  if (words == 0 || has_aggregate) {
    type.bytes = 0;  // no type, or a layout the translator cannot see
  } else if (has_enum) {
    type.bytes = 4;
  } else if (has_double) {
    type.bytes = longs > 0 ? 16 : 8;
  } else if (has_float) {
    type.bytes = 4;
  } else if (has_char) {
    type.bytes = 1;
  } else if (has_short) {
    type.bytes = 2;
  } else if (longs >= 1) {
    type.bytes = 8;
  } else if (has_int || has_sign) {
    type.bytes = 4;
  } else if (has_bool) {
    type.bytes = 1;
  } else if (words == 1) {
    type.bytes = typedef_size(only_word);
  }
  return type;
}

std::string TranslationUnit::text(const Expr& e) const {
  return render_tokens(tokens, e.span.begin, e.span.end);
}

Result<TranslationUnit> parse(std::vector<Token> tokens) {
  TranslationUnit unit;
  unit.tokens = std::move(tokens);
  for (Token& t : unit.tokens) {
    if (t.kind == TokKind::kIdent) t.sym = unit.symbols.intern(t.text);
  }
  if (Status s = Parser(unit).parse_unit(); !s) return s;
  return Result<TranslationUnit>(std::move(unit));
}

}  // namespace parade::translator

#include "translator/parser.hpp"

#include <cctype>

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

bool is_assign_op(const Token& t) {
  return t.is("=") || t.is("+=") || t.is("-=") || t.is("*=") || t.is("/=") ||
         t.is("%=") || t.is("&=") || t.is("|=") || t.is("^=") ||
         t.is("<<=") || t.is(">>=");
}

/// Token-level access scan of one expression: identifiers read, names
/// written (with the store shape), whether a call appears, and the
/// identifiers inside each name's subscripts.
AccessScan scan_accesses(const std::vector<Token>& tokens, TokenSpan span) {
  AccessScan out;
  const std::size_t n = span.end - span.begin;
  auto at = [&](std::size_t k) -> const Token& {
    return tokens[span.begin + k];
  };
  std::vector<bool> skip_read(n, false);

  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = at(i);
    if (t.kind == TokKind::kIdent && i + 1 < n && at(i + 1).is_punct("(")) {
      out.has_call = true;
      skip_read[i] = true;  // call target, not a data read
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
          out.writes.push_back({at(i - 2).text, false, true, false});
        }
        skip_read[i] = true;
        continue;
      }
      if (after_deref) {
        out.writes.push_back({t.text, false, false, true});
        continue;
      }
      out.writes.push_back({t.text, false, false, false});
      if (next_assign && at(i + 1).is("=")) skip_read[i] = true;
      continue;
    }
    // Prefix ++x / --x.
    if ((t.is_punct("++") || t.is_punct("--")) && i + 1 < n &&
        at(i + 1).kind == TokKind::kIdent) {
      const bool postfix_of_prev =
          i > 0 && (at(i - 1).kind == TokKind::kIdent ||
                    at(i - 1).is_punct(")") || at(i - 1).is_punct("]"));
      if (!postfix_of_prev) {
        out.writes.push_back({at(i + 1).text, false, false, false});
      }
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
        out.writes.push_back({at(j - 1).text, true, false, false});
      }
      continue;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (at(i).kind != TokKind::kIdent || skip_read[i]) continue;
    if (i > 0 && (at(i - 1).is_punct(".") || at(i - 1).is_punct("->"))) {
      continue;  // member name, the base identifier is the read
    }
    out.reads.push_back(at(i).text);
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
      } else if (depth > 0 && at(j).kind == TokKind::kIdent &&
                 !out.subscripted_by(at(i).text, at(j).text)) {
        out.subscripts.emplace_back(at(i).text, at(j).text);
      }
    }
  }
  return out;
}

class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  Result<TranslationUnit> parse_unit();

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

  /// Consumes tokens until the one-character punct `stop` at paren/bracket
  /// depth 0 and returns their span (stop not consumed unless consume_stop,
  /// never in the span).
  TokenSpan consume_until(char stop, bool consume_stop);

  /// An expression over `span` with its rendered text; expr() also runs the
  /// access scan, text_of() (types, parameter lists) does not.
  Expr text_of(TokenSpan span) const {
    Expr e;
    e.text = render_tokens(tokens_, span.begin, span.end);
    e.span = span;
    return e;
  }
  Expr expr(TokenSpan span) const { return scanned(text_of(span)); }
  /// `e` with the access scan of its span attached.
  Expr scanned(Expr e) const {
    AccessScan acc = scan_accesses(tokens_, e.span);
    if (!acc.reads.empty() || !acc.writes.empty() || acc.has_call ||
        !acc.subscripts.empty()) {
      e.scan = std::make_unique<const AccessScan>(std::move(acc));
    }
    return e;
  }

  Result<StmtPtr> parse_statement();
  Result<StmtPtr> parse_block();
  Result<StmtPtr> parse_declaration();
  Result<StmtPtr> parse_for();
  Result<StmtPtr> parse_pragma_stmt();
  void canonicalize_for(ForHeader& header) const;
  std::vector<Param> split_params(const Expr& params) const;

  bool looks_like_declaration() const;

  const std::vector<Token>& tokens_;
  std::size_t pos_ = 0;
};

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

Result<StmtPtr> Parser::parse_block() {
  auto block = std::make_unique<Stmt>();
  block->kind = StmtKind::kBlock;
  block->line = cur().line;
  advance();  // '{'
  while (!at_eof() && !cur().is_punct("}")) {
    auto stmt = parse_statement();
    if (!stmt.is_ok()) return stmt.status();
    block->children.push_back(std::move(stmt).value());
  }
  if (at_eof()) return error("unterminated block");
  advance();  // '}'
  return StmtPtr(std::move(block));
}

Result<StmtPtr> Parser::parse_declaration() {
  auto decl = std::make_unique<Stmt>();
  decl->kind = StmtKind::kDecl;
  decl->line = cur().line;

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
  decl->decl_type = text_of({type_begin, pos_});

  // Declarators separated by commas, terminated by ';'.
  for (;;) {
    Declarator d;
    while (cur().is_punct("*")) {
      ++d.pointer_depth;
      advance();
    }
    if (cur().kind != TokKind::kIdent) {
      return error("expected declarator name after '" + decl->decl_type.text +
                   "'");
    }
    d.name = cur().text;
    advance();
    if (cur().is_punct("(")) {
      // Function prototype: swallow the parameter list.
      d.is_function = true;
      advance();
      (void)consume_until(')', /*consume_stop=*/true);
    }
    while (cur().is_punct("[")) {
      advance();
      d.array_dims.push_back(expr(consume_until(']', /*consume_stop=*/true)));
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
    decl->declarators.push_back(std::move(d));
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
  return StmtPtr(std::move(decl));
}

void Parser::canonicalize_for(ForHeader& h) const {
  // Reads past the end of a header part see the ';' that ended it.
  static const Token kEnd{TokKind::kPunct, ";", 0, 0};
  auto tok = [&](const Expr& part, std::size_t k) -> const Token& {
    const std::size_t at = part.span.begin + k;
    return at < part.span.end ? tokens_[at] : kEnd;
  };
  // The rest of `part` from token k on, its tokens joined by single spaces.
  auto tail = [&](const Expr& part, std::size_t k) {
    Expr e;
    e.span = {part.span.begin + k, part.span.end};
    for (std::size_t at = e.span.begin; at < e.span.end; ++at) {
      if (!e.text.empty()) e.text += ' ';
      e.text += tokens_[at].text;
    }
    return scanned(std::move(e));
  };
  const Expr& init = h.init_text;
  const Expr& cond = h.cond_text;
  const Expr& incr = h.incr_text;

  // init: [type] var = lower
  std::size_t i = 0;
  std::string decl_type;
  while (tok(init, i).kind == TokKind::kKeyword &&
         is_decl_start_keyword(tok(init, i).text)) {
    if (!decl_type.empty()) decl_type += ' ';
    decl_type += tok(init, i).text;
    ++i;
  }
  if (tok(init, i).kind != TokKind::kIdent) return;
  const std::string var = tok(init, i).text;
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
  if (tok(cond, 0).text != var) return;
  const Token& rel = tok(cond, 1);
  if (!rel.is("<") && !rel.is("<=") && !rel.is(">") && !rel.is(">=")) return;

  // incr: var++ / ++var / var-- / --var / var += s / var -= s /
  //       var = var + s / var = var - s
  std::size_t step_at = 0;  // 0: implicit step 1
  bool increasing = true;
  if (tok(incr, 0).text == var && tok(incr, 1).is_punct("++")) {
  } else if (tok(incr, 0).is_punct("++") && tok(incr, 1).text == var) {
  } else if (tok(incr, 0).text == var && tok(incr, 1).is_punct("--")) {
    increasing = false;
  } else if (tok(incr, 0).is_punct("--") && tok(incr, 1).text == var) {
    increasing = false;
  } else if (tok(incr, 0).text == var &&
             (tok(incr, 1).is_punct("+=") || tok(incr, 1).is_punct("-="))) {
    increasing = tok(incr, 1).is("+=");
    step_at = 2;
  } else if (tok(incr, 0).text == var && tok(incr, 1).is_punct("=") &&
             tok(incr, 2).text == var &&
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
  h.var_decl_type = decl_type;
  h.lower = tail(init, lower_at);
  h.upper = tail(cond, 2);
  h.inclusive = rel.is("<=") || rel.is(">=");
  h.increasing = increasing;
  if (step_at == 0) {
    h.step.text = "1";
  } else {
    h.step = tail(incr, step_at);
  }
}

std::vector<Param> Parser::split_params(const Expr& params) const {
  std::vector<Param> out;
  if (params.text.empty() || text_is(params.text, "void")) return out;
  std::size_t group = params.span.begin;
  for (std::size_t k = group; k <= params.span.end; ++k) {
    if (k < params.span.end && !tokens_[k].is_punct(",")) continue;
    // Tokens [group, k) are one parameter; its last identifier is the name.
    for (std::size_t i = k; i-- > group;) {
      if (tokens_[i].kind != TokKind::kIdent) continue;
      Param p;
      p.name = tokens_[i].text;
      p.type = render_tokens(tokens_, group, i);
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

Result<StmtPtr> Parser::parse_for() {
  auto stmt = std::make_unique<Stmt>();
  stmt->kind = StmtKind::kFor;
  stmt->line = cur().line;
  advance();  // 'for'
  if (!cur().is_punct("(")) return error("expected '(' after for");
  advance();
  stmt->for_header.init_text = expr(consume_until(';', /*consume_stop=*/true));
  stmt->for_header.cond_text = expr(consume_until(';', /*consume_stop=*/true));
  stmt->for_header.incr_text = expr(consume_until(')', /*consume_stop=*/true));
  canonicalize_for(stmt->for_header);
  auto body = parse_statement();
  if (!body.is_ok()) return body.status();
  stmt->children.push_back(std::move(body).value());
  return StmtPtr(std::move(stmt));
}

Result<StmtPtr> Parser::parse_pragma_stmt() {
  auto stmt = std::make_unique<Stmt>();
  stmt->kind = StmtKind::kPragma;
  stmt->line = cur().line;
  auto directive = parse_pragma(cur().text, cur().line);
  if (!directive.is_ok()) return directive.status();
  stmt->directive = std::move(directive).value();
  advance();

  switch (stmt->directive.kind) {
    case DirectiveKind::kBarrier:
    case DirectiveKind::kFlush:
    case DirectiveKind::kThreadprivate:
      stmt->directive_has_body = false;
      break;
    default: {
      auto body = parse_statement();
      if (!body.is_ok()) return body.status();
      stmt->children.push_back(std::move(body).value());
      stmt->directive_has_body = true;
      break;
    }
  }
  return StmtPtr(std::move(stmt));
}

Result<StmtPtr> Parser::parse_statement() {
  const Token& t = cur();
  switch (t.kind) {
    case TokKind::kPragmaOmp:
      return parse_pragma_stmt();
    case TokKind::kHashLine: {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kHashLine;
      stmt->text.text = t.text;
      stmt->line = t.line;
      advance();
      return StmtPtr(std::move(stmt));
    }
    default:
      break;
  }
  if (t.is_punct("{")) return parse_block();
  if (t.is_punct(";")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kEmpty;
    stmt->line = t.line;
    advance();
    return StmtPtr(std::move(stmt));
  }
  if (t.is_kw("for")) return parse_for();
  if (t.is_kw("if")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kIf;
    stmt->line = t.line;
    advance();
    if (!cur().is_punct("(")) return error("expected '(' after if");
    advance();
    stmt->cond = expr(consume_until(')', /*consume_stop=*/true));
    auto then_branch = parse_statement();
    if (!then_branch.is_ok()) return then_branch.status();
    stmt->children.push_back(std::move(then_branch).value());
    if (cur().is_kw("else")) {
      advance();
      auto else_branch = parse_statement();
      if (!else_branch.is_ok()) return else_branch.status();
      stmt->children.push_back(std::move(else_branch).value());
      stmt->has_else = true;
    }
    return StmtPtr(std::move(stmt));
  }
  if (t.is_kw("while")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kWhile;
    stmt->line = t.line;
    advance();
    if (!cur().is_punct("(")) return error("expected '(' after while");
    advance();
    stmt->cond = expr(consume_until(')', /*consume_stop=*/true));
    auto body = parse_statement();
    if (!body.is_ok()) return body.status();
    stmt->children.push_back(std::move(body).value());
    return StmtPtr(std::move(stmt));
  }
  if (t.is_kw("do")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kDoWhile;
    stmt->line = t.line;
    advance();
    auto body = parse_statement();
    if (!body.is_ok()) return body.status();
    stmt->children.push_back(std::move(body).value());
    if (!cur().is_kw("while")) return error("expected while after do body");
    advance();
    if (!cur().is_punct("(")) return error("expected '(' after do..while");
    advance();
    stmt->cond = expr(consume_until(')', /*consume_stop=*/true));
    if (cur().is_punct(";")) advance();
    return StmtPtr(std::move(stmt));
  }
  if (t.is_kw("switch")) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kSwitch;
    stmt->line = t.line;
    advance();
    if (!cur().is_punct("(")) return error("expected '(' after switch");
    advance();
    stmt->cond = expr(consume_until(')', /*consume_stop=*/true));
    auto body = parse_statement();
    if (!body.is_ok()) return body.status();
    stmt->children.push_back(std::move(body).value());
    return StmtPtr(std::move(stmt));
  }
  if (looks_like_declaration()) return parse_declaration();

  // Raw statement: everything through ';' at depth 0. Covers expressions,
  // return, break, continue, goto, labels.
  auto stmt = std::make_unique<Stmt>();
  stmt->kind = StmtKind::kRaw;
  stmt->line = t.line;
  stmt->text = expr(consume_until(';', /*consume_stop=*/true));
  stmt->text.text += ";";
  return StmtPtr(std::move(stmt));
}

Result<TranslationUnit> Parser::parse_unit() {
  TranslationUnit unit;
  while (!at_eof()) {
    const Token& t = cur();
    if (t.kind == TokKind::kHashLine) {
      TopItem item;
      item.kind = TopItem::Kind::kHashLine;
      item.text = t.text;
      unit.items.push_back(std::move(item));
      advance();
      continue;
    }
    if (t.kind == TokKind::kPragmaOmp) {
      auto stmt = parse_pragma_stmt();
      if (!stmt.is_ok()) return stmt.status();
      TopItem item;
      item.kind = TopItem::Kind::kPragma;
      item.stmt = std::move(stmt).value();
      unit.items.push_back(std::move(item));
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
      FunctionDef fn;
      fn.line = t.line;
      fn.ret_type = render_tokens(tokens_, pos_, name_at);
      fn.name = tokens_[name_at].text;
      pos_ = name_at + 1;  // at '('
      advance();           // past '('
      fn.params = text_of(consume_until(')', /*consume_stop=*/true));
      fn.param_list = split_params(fn.params);
      if (!cur().is_punct("{")) return error("expected function body");
      auto body = parse_block();
      if (!body.is_ok()) return body.status();
      fn.body = std::move(body).value();
      TopItem item;
      item.kind = TopItem::Kind::kFunction;
      item.function = std::move(fn);
      unit.items.push_back(std::move(item));
      continue;
    }

    // Top-level declaration.
    if (looks_like_declaration()) {
      auto decl = parse_declaration();
      if (!decl.is_ok()) return decl.status();
      TopItem item;
      item.kind = TopItem::Kind::kDecl;
      item.stmt = std::move(decl).value();
      unit.items.push_back(std::move(item));
      continue;
    }
    // Anything else (stray semicolons, extern "C" etc.): raw until ';'.
    TopItem item;
    item.kind = TopItem::Kind::kRaw;
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kRaw;
    stmt->line = t.line;
    stmt->text = expr(consume_until(';', /*consume_stop=*/true));
    stmt->text.text += ";";
    item.stmt = std::move(stmt);
    unit.items.push_back(std::move(item));
  }
  return unit;
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

Result<TranslationUnit> parse(std::vector<Token> tokens) {
  auto unit = Parser(tokens).parse_unit();
  if (unit.is_ok()) unit.value().tokens = std::move(tokens);
  return unit;
}

}  // namespace parade::translator

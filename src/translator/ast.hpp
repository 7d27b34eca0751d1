// Statement-level AST for the translator. Following Omni's C-front approach
// (parse, annotate with directive info, regenerate C), the source is lexed
// once and its tokens are kept in the TranslationUnit. Structure is parsed
// only where the translation needs it: blocks, declarations, for-loop
// headers, and directive attachment points. Every expression is an Expr: a
// span of those tokens, their rendered text, and the reads and writes the
// parser found in them, so later passes never tokenize text again.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "translator/pragma.hpp"
#include "translator/token.hpp"

namespace parade::translator {

enum class StmtKind {
  kBlock,     // { children }
  kRaw,       // expression statement / return / goto ... (verbatim text)
  kDecl,      // declaration; names/types extracted for the symbol table
  kFor,       // parsed header + body
  kIf,        // cond + then (+ optional else)
  kWhile,     // cond + body
  kDoWhile,   // body + cond
  kSwitch,    // cond + body (body treated structurally)
  kPragma,    // OpenMP directive (+ optional body)
  kHashLine,  // preprocessor line, verbatim
  kEmpty,     // ;
};

/// Half-open range [begin, end) of indices into TranslationUnit::tokens.
struct TokenSpan {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool empty() const { return begin == end; }
};

/// What one expression reads and writes, from a single token-level scan the
/// parser runs when it builds the expression. The analyzer's def-use walk,
/// the CFG builder, the footprint and interference passes and CodeGen all
/// read it, so they agree on what constitutes an access.
struct AccessScan {
  struct Write {
    std::string name;
    bool array = false;   // a[i] = ...
    bool member = false;  // s.f = ...
    bool deref = false;   // *p = ...
  };
  std::vector<std::string> reads;  // in token order
  std::vector<Write> writes;
  bool has_call = false;
  /// (name, identifier) pairs: the identifier appears inside a `name[...]`
  /// subscript. Chained groups such as grid[i][j] contribute both i and j.
  std::vector<std::pair<std::string, std::string>> subscripts;

  /// True when some subscript of `name` uses an identifier.
  bool subscripted(const std::string& name) const {
    for (const auto& [array, ident] : subscripts) {
      if (array == name) return true;
    }
    return false;
  }
  /// True when `ident` appears in a subscript of `name`.
  bool subscripted_by(const std::string& name, const std::string& ident) const {
    for (const auto& [array, used] : subscripts) {
      if (array == name && used == ident) return true;
    }
    return false;
  }
};

/// One expression of the source. `text` is the rendering of `span` that
/// CodeGen and messages use (a raw statement's text also carries its
/// terminating ';', which the span leaves out). Values the parser makes up,
/// such as the step `1` of an `i++` loop, have text and an empty span.
struct Expr {
  std::string text;
  TokenSpan span;
  /// Null when the scan found nothing (or the expression is not scanned:
  /// declaration types and parameter lists).
  std::unique_ptr<const AccessScan> scan;

  bool empty() const { return text.empty(); }
  const AccessScan& access() const {
    static const AccessScan kNone;
    return scan ? *scan : kNone;
  }
};

/// One declarator inside a declaration: `*name[dim0][dim1] = init`.
struct Declarator {
  std::string name;
  int pointer_depth = 0;
  std::vector<Expr> array_dims;  // dimension expressions, outermost first
  Expr init;                     // initializer (empty if none)
  bool is_function = false;      // function prototype declarator
};

/// Canonicalized `for (init; cond; incr)` header when the loop is in OpenMP
/// canonical shape; otherwise only the raw texts are set. The canonical
/// parts' texts join their tokens with single spaces.
struct ForHeader {
  Expr init_text;
  Expr cond_text;
  Expr incr_text;

  bool canonical = false;
  std::string loop_var;
  std::string var_decl_type;  // non-empty if the init declares the variable
  Expr lower;                 // initial value expression
  Expr upper;                 // bound expression
  bool inclusive = false;     // cond used <= (or >=)
  bool increasing = true;
  Expr step;                  // positive step expression ("1" for ++/--)
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind kind = StmtKind::kEmpty;
  int line = 0;

  std::vector<StmtPtr> children;  // block children / bodies (see kind)
  Expr text;                      // kRaw statement / kHashLine verbatim text
  Expr cond;                      // kIf / kWhile / kDoWhile / kSwitch
  bool has_else = false;          // kIf: children = {then, else?}

  // kDecl
  Expr decl_type;  // base type ("static double", "unsigned int")
  std::vector<Declarator> declarators;

  // kFor: children = {body}
  ForHeader for_header;

  // kPragma: children = {body?}
  Directive directive;
  bool directive_has_body = false;
};

/// One parameter of a function definition: the last identifier of a
/// comma-separated group is its name, the tokens before it its type.
struct Param {
  std::string name;
  std::string type;       // rendering of the tokens before the name
  int pointer_depth = 0;  // '*' tokens in the type
  bool is_array = false;  // name followed by '['
};

struct FunctionDef {
  std::string ret_type;           // text before the name
  std::string name;
  Expr params;                    // the tokens inside the parentheses
  std::vector<Param> param_list;  // params split once by the parser
  StmtPtr body;
  int line = 0;
};

struct TopItem {
  enum class Kind { kFunction, kDecl, kHashLine, kPragma, kRaw } kind;
  FunctionDef function;  // kFunction
  StmtPtr stmt;          // kDecl / kPragma / kRaw
  std::string text;      // kHashLine
};

struct TranslationUnit {
  std::vector<TopItem> items;
  /// The lexer's output, kept by parse(); every TokenSpan indexes into it.
  std::vector<Token> tokens;
};

}  // namespace parade::translator

// Statement-level AST for the translator. Following Omni's C-front approach
// (parse, annotate with directive info, regenerate C), the source is lexed
// once and its tokens are kept in the TranslationUnit. Structure is parsed
// only where the translation needs it: blocks, declarations, for-loop
// headers, and directive attachment points. Names travel as symbol ids
// (Token::sym) and every expression is an Expr: a span of the unit's tokens
// plus the index ranges of the reads and writes the parser found in it, kept
// in the unit's one AccessPool. Nothing renders an expression's text until a
// pass prints it (render_tokens), and no pass tokenizes text again. The
// unit owns every node in chunked pools, so building the tree allocates per
// chunk, not per node. See docs/ANALYZER.md, "Front end: tokens, symbols and
// spans".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "translator/pragma.hpp"
#include "translator/token.hpp"

namespace parade::translator {

enum class StmtKind {
  kBlock,     // { children }
  kRaw,       // expression statement / return / goto ... (verbatim tokens)
  kDecl,      // declaration; names/types extracted for the symbol table
  kFor,       // parsed header + body
  kIf,        // cond + then (+ optional else)
  kWhile,     // cond + body
  kDoWhile,   // body + cond
  kSwitch,    // cond + body (body treated structurally)
  kLabel,     // `case expr :`, `default :` or `name :`, + the labeled stmt
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

/// One store found in an expression: the stored name and the store's shape.
struct AccessWrite {
  Sym sym = kNoSym;
  bool array = false;   // a[i] = ...
  bool member = false;  // s.f = ...
  bool deref = false;   // *p = ...
};

/// `ident` appears inside a subscript of `array`. Chained groups such as
/// grid[i][j] contribute both (grid, i) and (grid, j).
struct AccessSubscript {
  Sym array = kNoSym;
  Sym ident = kNoSym;
};

/// The access records of every expression of a unit, appended by the
/// parser's one token-level scan per expression. An Expr names its records
/// by index ranges.
struct AccessPool {
  std::vector<Sym> reads;
  std::vector<AccessWrite> writes;
  std::vector<AccessSubscript> subscripts;
};

/// What one expression reads and writes: a view of its records in the
/// unit's AccessPool (TranslationUnit::access). The analyzer's def-use walk,
/// the CFG builder, the footprint and interference passes and CodeGen all
/// read it, so they agree on what constitutes an access.
struct AccessScan {
  std::span<const Sym> reads;  // in token order
  std::span<const AccessWrite> writes;
  std::span<const AccessSubscript> subscripts;
  bool has_call = false;

  /// True when some subscript of `array` uses an identifier.
  bool subscripted(Sym array) const {
    for (const AccessSubscript& s : subscripts) {
      if (s.array == array) return true;
    }
    return false;
  }
  /// True when `ident` appears in a subscript of `array`.
  bool subscripted_by(Sym array, Sym ident) const {
    for (const AccessSubscript& s : subscripts) {
      if (s.array == array && s.ident == ident) return true;
    }
    return false;
  }
};

/// One expression of the source: a span of the unit's tokens and the index
/// ranges of its access records in the unit's AccessPool. A raw statement's
/// span leaves out its terminating ';'. Declaration types and parameter
/// lists are spans with no records.
struct Expr {
  TokenSpan span;
  std::uint32_t reads = 0;  // first record of each kind in the pool
  std::uint32_t writes = 0;
  std::uint32_t subscripts = 0;
  std::uint32_t n_reads = 0;
  std::uint32_t n_writes = 0;
  std::uint32_t n_subscripts = 0;
  bool has_call = false;

  bool empty() const { return span.empty(); }
};

/// A declared base type, parsed once by the parser from its words.
struct DeclType {
  TokenSpan span;  // as written: "static unsigned long", "double *"
  /// The value-type spelling: the words minus static, extern, register,
  /// auto, const and volatile, joined by single spaces, with the OpenMP
  /// lock types spelled through parade::ompshim ("unsigned long"). The
  /// rendering as written when no word is left.
  std::string value;
  std::size_t bytes = 0;  // byte size of the base type; 0 = unknown
};

/// One declarator inside a declaration: `*name[dim0][dim1] = init`.
struct Declarator {
  Sym name = kNoSym;
  int pointer_depth = 0;
  bool is_function = false;  // function prototype declarator
  /// Dimension expressions, outermost first: a range of
  /// TranslationUnit::dims.
  std::uint32_t dims = 0;
  std::uint32_t n_dims = 0;
  Expr init;  // initializer (empty if none)
};

/// A declaration statement's payload: its base type and a range of
/// TranslationUnit::declarators.
struct Decl {
  DeclType type;
  std::uint32_t declarators = 0;
  std::uint32_t n_declarators = 0;
};

/// `for (init; cond; incr)` header, canonicalized when the loop is in
/// OpenMP canonical shape. `lower`, `upper` and `step` are suffixes of the
/// header parts and share their access records.
struct ForHeader {
  Expr init_text;
  Expr cond_text;
  Expr incr_text;

  bool canonical = false;
  Sym loop_var = kNoSym;
  /// The init's declared type when the init declares the variable (its
  /// span is empty otherwise).
  DeclType var_type;
  Expr lower;              // initial value expression
  Expr upper;              // bound expression
  bool inclusive = false;  // cond used <= (or >=)
  bool increasing = true;
  /// ++/--: the step is the literal 1 and `step` is empty.
  bool unit_step = false;
  Expr step;  // positive step expression

  bool declares_var() const { return !var_type.span.empty(); }
};

struct Stmt;

/// The children of a statement, a singly linked list in source order.
class StmtList {
 public:
  class iterator {
   public:
    explicit iterator(const Stmt* at) : at_(at) {}
    const Stmt& operator*() const { return *at_; }
    const Stmt* operator->() const { return at_; }
    iterator& operator++();
    bool operator==(const iterator& o) const { return at_ == o.at_; }
    bool operator!=(const iterator& o) const { return at_ != o.at_; }

   private:
    const Stmt* at_;
  };

  explicit StmtList(const Stmt* first) : first_(first) {}
  iterator begin() const { return iterator(first_); }
  iterator end() const { return iterator(nullptr); }
  bool empty() const { return first_ == nullptr; }

 private:
  const Stmt* first_;
};

/// One statement. Only the payload of its own kind is set: kDecl points at
/// a Decl, kFor at a ForHeader and kPragma at a Directive, all owned by the
/// unit's pools.
struct Stmt {
  StmtKind kind = StmtKind::kEmpty;
  int line = 0;
  bool has_else = false;            // kIf: children = {then, else?}
  bool directive_has_body = false;  // kPragma
  Stmt* first_child = nullptr;
  Stmt* next = nullptr;  // next sibling
  /// kRaw: the statement; kHashLine: its one token; kLabel: the label
  /// through its ':'; kIf / kWhile / kDoWhile / kSwitch: the condition.
  Expr expr;
  Decl* decl = nullptr;             // kDecl
  ForHeader* for_header = nullptr;  // kFor: children = {body}
  Directive* directive = nullptr;   // kPragma: children = {body?}

  StmtList children() const { return StmtList(first_child); }
  /// The i-th child, or nullptr when there are fewer.
  const Stmt* child(std::size_t i) const {
    const Stmt* c = first_child;
    while (c != nullptr && i-- > 0) c = c->next;
    return c;
  }
  std::size_t child_count() const {
    std::size_t n = 0;
    for (const Stmt* c = first_child; c != nullptr; c = c->next) ++n;
    return n;
  }
};

inline StmtList::iterator& StmtList::iterator::operator++() {
  at_ = at_->next;
  return *this;
}

/// One parameter of a function definition: the last identifier of a
/// comma-separated group is its name, the tokens before it its type.
struct Param {
  Sym name = kNoSym;
  DeclType type;          // the tokens before the name, '*'s included
  int pointer_depth = 0;  // '*' tokens in the type
  bool is_array = false;  // name followed by '['
};

struct FunctionDef {
  TokenSpan ret_type;  // the tokens before the name
  Sym name = kNoSym;
  TokenSpan params;               // the tokens inside the parentheses
  std::vector<Param> param_list;  // params split once by the parser
  Stmt* body = nullptr;
  int line = 0;
};

struct TopItem {
  enum class Kind { kFunction, kDecl, kHashLine, kPragma, kRaw } kind;
  FunctionDef function;   // kFunction
  Stmt* stmt = nullptr;   // kDecl / kPragma / kRaw
  std::size_t token = 0;  // kHashLine: index of the line's token
};

/// Stable-address storage for nodes of one type: chunks of kChunk
/// default-constructed nodes, handed out in order and freed with the pool.
template <typename T>
class NodePool {
 public:
  T* make() {
    if (used_ == kChunk) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
      used_ = 0;
    }
    return &chunks_.back()[used_++];
  }

 private:
  static constexpr std::size_t kChunk = 128;
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t used_ = kChunk;
};

/// Elements [begin, begin + count) of a per-unit array, as a view.
template <typename T>
std::span<const T> pool_range(const std::vector<T>& pool, std::uint32_t begin,
                              std::uint32_t count) {
  if (count == 0) return {};
  return {pool.data() + begin, count};
}

struct TranslationUnit {
  std::vector<TopItem> items;
  /// The lexer's output, kept by parse(); every TokenSpan indexes into it.
  std::vector<Token> tokens;
  /// Every identifier of the tokens and every clause variable, interned.
  SymbolTable symbols;
  AccessPool accesses;
  std::vector<Declarator> declarators;
  std::vector<Expr> dims;
  NodePool<Stmt> stmts;
  NodePool<Decl> decls;
  NodePool<ForHeader> fors;
  NodePool<Directive> directives;

  std::string_view name(Sym sym) const { return symbols.name(sym); }
  AccessScan access(const Expr& e) const {
    return AccessScan{
        pool_range(accesses.reads, e.reads, e.n_reads),
        pool_range(accesses.writes, e.writes, e.n_writes),
        pool_range(accesses.subscripts, e.subscripts, e.n_subscripts),
        e.has_call};
  }
  std::span<const Declarator> declarators_of(const Decl& d) const {
    return pool_range(declarators, d.declarators, d.n_declarators);
  }
  std::span<const Expr> dims_of(const Declarator& d) const {
    return pool_range(dims, d.dims, d.n_dims);
  }
  /// The expression's tokens rendered as written (messages and tests).
  std::string text(const Expr& e) const;
};

}  // namespace parade::translator

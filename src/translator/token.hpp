// C lexer for the OpenMP translator. Tokenizes a preprocessed-ish C source
// (we pass through #include/#define lines untouched, as Omni's C-front does
// after its preprocessing step) and exposes `#pragma omp` lines as dedicated
// pragma tokens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace parade::translator {

enum class TokKind {
  kIdent,
  kKeyword,
  kNumber,
  kString,
  kChar,
  kPunct,      // operators and punctuation, longest-match
  kPragmaOmp,  // a whole "#pragma omp ..." line; text holds the directive part
  kHashLine,   // any other preprocessor line, passed through verbatim
  kEof,
};

/// `text == lit` for a string literal `lit`: its length is a compile-time
/// constant, so this is a size test and an inline memcmp. (libstdc++'s
/// `std::string == const char*` calls an out-of-line compare that runs
/// strlen first.)
template <std::size_t N>
bool text_is(std::string_view text, const char (&lit)[N]) {
  return text.size() == N - 1 && std::memcmp(text.data(), lit, N - 1) == 0;
}

/// An identifier's id: its index in the unit's SymbolTable.
using Sym = std::uint32_t;
inline constexpr Sym kNoSym = ~Sym{0};

struct Token {
  TokKind kind = TokKind::kEof;
  /// kIdent: the identifier's id in its unit's SymbolTable, set by parse()
  /// (kNoSym from lex() and for every other kind). It sits in the padding
  /// after `kind`, so a token stays the size of its text plus 16 bytes.
  Sym sym = kNoSym;
  std::string text;
  int line = 0;
  int column = 0;  // 1-based byte column of the token start (0 = unknown)

  template <std::size_t N>
  bool is(const char (&t)[N]) const {
    return text_is(text, t);
  }
  template <std::size_t N>
  bool is_punct(const char (&t)[N]) const {
    return kind == TokKind::kPunct && text_is(text, t);
  }
  template <std::size_t N>
  bool is_kw(const char (&t)[N]) const {
    return kind == TokKind::kKeyword && text_is(text, t);
  }
};

static_assert(sizeof(Token) == sizeof(std::string) + 16,
              "Token::sym must fit the padding after Token::kind");

/// The identifier names of one unit, interned: each distinct name is stored
/// once and gets the next dense id. Lookups hash the name into an
/// open-addressed slot array, so interning allocates only when a new name
/// arrives. A name's view stays valid until the next intern().
class SymbolTable {
 public:
  /// The id of `name`, adding it when it is new.
  Sym intern(std::string_view name);
  /// The id of `name`, or kNoSym when the unit never named it.
  Sym find(std::string_view name) const;
  std::string_view name(Sym sym) const { return names_[sym]; }
  std::size_t size() const { return names_.size(); }

 private:
  std::size_t slot_of(std::string_view name) const;
  void rehash(std::size_t slots);

  std::vector<std::string> names_;
  std::vector<Sym> slots_;  // power-of-two size; kNoSym marks a free slot
};

/// True for C type/storage keywords that can begin a declaration.
bool is_decl_start_keyword(std::string_view word);

/// True for the storage-class and cv qualifiers a declared type's value
/// spelling drops: static, extern, register, auto, const and volatile.
bool is_type_qualifier(std::string_view word);

/// Tokenizes `source`. Comments are dropped; `#pragma omp` lines become
/// kPragmaOmp tokens (text = everything after "omp"), other `#` lines become
/// kHashLine tokens (text = whole line). Every token's `sym` is kNoSym;
/// parse() interns the identifiers.
Result<std::vector<Token>> lex(const std::string& source);

}  // namespace parade::translator

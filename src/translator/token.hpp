// C lexer for the OpenMP translator. Tokenizes a preprocessed-ish C source
// (we pass through #include/#define lines untouched, as Omni's C-front does
// after its preprocessing step) and exposes `#pragma omp` lines as dedicated
// pragma tokens.
#pragma once

#include <cstddef>
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

struct Token {
  TokKind kind = TokKind::kEof;
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

/// True for C type/storage keywords that can begin a declaration.
bool is_decl_start_keyword(std::string_view word);

/// The words of a declared type's text (its tokens joined by spaces) minus
/// the storage-class and cv qualifiers static, extern, register, auto, const
/// and volatile: "static unsigned long" -> {"unsigned", "long"}.
std::vector<std::string_view> type_words(std::string_view decl_type);

/// Tokenizes `source`. Comments are dropped; `#pragma omp` lines become
/// kPragmaOmp tokens (text = everything after "omp"), other `#` lines become
/// kHashLine tokens (text = whole line).
Result<std::vector<Token>> lex(const std::string& source);

}  // namespace parade::translator

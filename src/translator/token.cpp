#include "translator/token.hpp"

namespace parade::translator {
namespace {

// Character classes of the C locale, inline: the lexer runs them on every
// source byte, and the translator never switches locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool is_alnum(char c) { return is_alpha(c) || is_digit(c); }
bool is_ident_char(char c) { return is_alnum(c) || c == '_'; }

/// C keyword test by first letter, so no identifier is hashed.
bool is_keyword(std::string_view w) {
  switch (w[0]) {
    case 'a': return text_is(w, "auto");
    case 'b': return text_is(w, "break");
    case 'c':
      return text_is(w, "case") || text_is(w, "char") || text_is(w, "const") ||
             text_is(w, "continue");
    case 'd':
      return text_is(w, "default") || text_is(w, "do") || text_is(w, "double");
    case 'e':
      return text_is(w, "else") || text_is(w, "enum") || text_is(w, "extern");
    case 'f': return text_is(w, "float") || text_is(w, "for");
    case 'g': return text_is(w, "goto");
    case 'i':
      return text_is(w, "if") || text_is(w, "inline") || text_is(w, "int");
    case 'l': return text_is(w, "long");
    case 'r':
      return text_is(w, "register") || text_is(w, "restrict") ||
             text_is(w, "return");
    case 's':
      return text_is(w, "short") || text_is(w, "signed") ||
             text_is(w, "sizeof") || text_is(w, "static") ||
             text_is(w, "struct") || text_is(w, "switch");
    case 't': return text_is(w, "typedef");
    case 'u': return text_is(w, "union") || text_is(w, "unsigned");
    case 'v': return text_is(w, "void") || text_is(w, "volatile");
    case 'w': return text_is(w, "while");
    default: return false;
  }
}

/// Length of the punctuator starting at source[i], longest match: one of
/// <<= >>= ..., the 2-character operators -> ++ -- << >> <= >= == != && ||
/// and the compound assignments, or else the single character.
std::size_t punct_length(const std::string& source, std::size_t i) {
  const std::size_t n = source.size();
  const char c = source[i];
  const char d = i + 1 < n ? source[i + 1] : '\0';
  const char e = i + 2 < n ? source[i + 2] : '\0';
  switch (c) {
    case '<':
    case '>':
      if (d == c) return e == '=' ? 3 : 2;
      return d == '=' ? 2 : 1;
    case '.': return d == '.' && e == '.' ? 3 : 1;
    case '-': return d == '>' || d == '-' || d == '=' ? 2 : 1;
    case '+':
    case '&':
    case '|': return d == c || d == '=' ? 2 : 1;
    case '*':
    case '/':
    case '%':
    case '^':
    case '=':
    case '!': return d == '=' ? 2 : 1;
    default: return 1;
  }
}

}  // namespace

bool is_decl_start_keyword(std::string_view w) {
  if (w.empty()) return false;
  switch (w[0]) {
    case 'a': return text_is(w, "auto");
    case 'c': return text_is(w, "char") || text_is(w, "const");
    case 'd': return text_is(w, "double");
    case 'e': return text_is(w, "enum") || text_is(w, "extern");
    case 'f': return text_is(w, "float");
    case 'i': return text_is(w, "inline") || text_is(w, "int");
    case 'l': return text_is(w, "long");
    case 'r': return text_is(w, "register");
    case 's':
      return text_is(w, "short") || text_is(w, "signed") ||
             text_is(w, "static") || text_is(w, "struct");
    case 't': return text_is(w, "typedef");
    case 'u': return text_is(w, "union") || text_is(w, "unsigned");
    case 'v': return text_is(w, "void") || text_is(w, "volatile");
    default: return false;
  }
}

std::vector<std::string_view> type_words(std::string_view decl_type) {
  std::vector<std::string_view> words;
  std::size_t i = 0;
  while (i < decl_type.size()) {
    if (is_space(decl_type[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < decl_type.size() && !is_space(decl_type[i])) ++i;
    const std::string_view w = decl_type.substr(start, i - start);
    if (text_is(w, "static") || text_is(w, "extern") ||
        text_is(w, "register") || text_is(w, "auto") || text_is(w, "const") ||
        text_is(w, "volatile")) {
      continue;
    }
    words.push_back(w);
  }
  return words;
}

Result<std::vector<Token>> lex(const std::string& source) {
  std::vector<Token> tokens;
  // C averages about four source bytes a token (3.8 over the perfbench
  // corpus); room for one per three bytes makes a regrow rare.
  tokens.reserve(source.size() / 3 + 1);
  std::size_t i = 0;
  int line = 1;
  std::size_t line_start = 0;  // index of the current line's first byte
  const std::size_t n = source.size();

  auto peek = [&](std::size_t ahead = 0) -> char {
    return i + ahead < n ? source[i + ahead] : '\0';
  };
  // 1-based byte column of position `at` on the current line.
  auto column_of = [&](std::size_t at) {
    return static_cast<int>(at - line_start) + 1;
  };
  // Appends a token spelled by source[start, i).
  auto push = [&](TokKind kind, std::size_t start, int start_column) {
    tokens.push_back(
        Token{kind, std::string(source, start, i - start), line, start_column});
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
      continue;
    }
    if (is_space(c)) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && peek(1) == '/') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i + 1 < n && !(source[i] == '*' && source[i + 1] == '/')) {
        if (source[i] == '\n') {
          ++line;
          line_start = i + 1;
        }
        ++i;
      }
      if (i + 1 >= n) {
        return make_error(ErrorCode::kInvalidArgument,
                          "unterminated comment at line " + std::to_string(line));
      }
      i += 2;
      continue;
    }
    // Preprocessor / pragma lines (with backslash continuation).
    if (c == '#') {
      std::string text;
      const int start_line = line;
      const int start_column = column_of(i);
      while (i < n) {
        if (source[i] == '\\' && i + 1 < n && source[i + 1] == '\n') {
          text += ' ';
          i += 2;
          ++line;
          line_start = i;
          continue;
        }
        if (source[i] == '\n') break;
        text += source[i];
        ++i;
      }
      // Classify: "#pragma omp ..." vs anything else.
      std::string squished;
      for (const char ch : text) {
        if (!is_space(ch) || (!squished.empty() && squished.back() != ' ')) {
          squished += is_space(ch) ? ' ' : ch;
        }
      }
      constexpr std::string_view kPragmaOmp = "#pragma omp";
      if (squished.rfind(kPragmaOmp, 0) == 0) {
        tokens.push_back(Token{TokKind::kPragmaOmp,
                               squished.substr(kPragmaOmp.size()), start_line,
                               start_column});
      } else {
        tokens.push_back(Token{TokKind::kHashLine, std::move(text), start_line,
                               start_column});
      }
      continue;
    }
    const std::size_t start = i;
    const int start_column = column_of(i);
    // Identifiers / keywords.
    if (is_alpha(c) || c == '_') {
      while (i < n && is_ident_char(source[i])) ++i;
      const std::string_view word(source.data() + start, i - start);
      push(is_keyword(word) ? TokKind::kKeyword : TokKind::kIdent, start,
           start_column);
      continue;
    }
    // Numbers (ints, floats, hex, suffixes, exponents).
    if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
      while (i < n) {
        const char d = source[i];
        const char prev = i > start ? source[i - 1] : '\0';
        if (is_alnum(d) || d == '.' ||
            ((d == '+' || d == '-') &&
             (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P'))) {
          ++i;
        } else {
          break;
        }
      }
      push(TokKind::kNumber, start, start_column);
      continue;
    }
    // Strings / chars: the token spells the literal with its quotes.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && source[i] != quote) {
        if (source[i] == '\\' && i + 1 < n) {
          i += 2;
          continue;
        }
        if (source[i] == '\n') {
          ++line;
          line_start = i + 1;
        }
        ++i;
      }
      if (i >= n) {
        return make_error(ErrorCode::kInvalidArgument,
                          "unterminated literal at line " + std::to_string(line));
      }
      ++i;
      push(quote == '"' ? TokKind::kString : TokKind::kChar, start,
           start_column);
      continue;
    }
    i += punct_length(source, i);
    push(TokKind::kPunct, start, start_column);
  }

  tokens.push_back(Token{TokKind::kEof, "", line, column_of(i)});
  return tokens;
}

}  // namespace parade::translator

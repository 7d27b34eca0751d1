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

bool is_type_qualifier(std::string_view w) {
  return text_is(w, "static") || text_is(w, "extern") ||
         text_is(w, "register") || text_is(w, "auto") || text_is(w, "const") ||
         text_is(w, "volatile");
}

namespace {

/// FNV-1a over the name's bytes.
std::size_t hash_name(std::string_view name) {
  std::size_t h = 14695981039346656037ULL;
  for (const char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::size_t SymbolTable::slot_of(std::string_view name) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t at = hash_name(name) & mask;
  while (slots_[at] != kNoSym && names_[slots_[at]] != name) {
    at = (at + 1) & mask;
  }
  return at;
}

void SymbolTable::rehash(std::size_t slots) {
  slots_.assign(slots, kNoSym);
  for (Sym sym = 0; sym < names_.size(); ++sym) {
    slots_[slot_of(names_[sym])] = sym;
  }
}

Sym SymbolTable::intern(std::string_view name) {
  // Keep the load under one half so probes stay short.
  if (2 * (names_.size() + 1) > slots_.size()) {
    rehash(slots_.empty() ? 256 : 2 * slots_.size());
  }
  const std::size_t at = slot_of(name);
  if (slots_[at] == kNoSym) {
    slots_[at] = static_cast<Sym>(names_.size());
    names_.emplace_back(name);
  }
  return slots_[at];
}

Sym SymbolTable::find(std::string_view name) const {
  if (slots_.empty()) return kNoSym;
  return slots_[slot_of(name)];
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
    tokens.push_back(Token{kind, kNoSym, std::string(source, start, i - start),
                           line, start_column});
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
    // Preprocessor / pragma lines (with backslash continuation). One pass
    // writes the line with its blank runs squeezed to one blank, which
    // tells "#pragma omp" lines apart and is their text; any other line is
    // copied again as written.
    if (c == '#') {
      const int start_line = line;
      const int start_column = column_of(i);
      const std::size_t start = i;
      std::size_t end = i;
      while (end < n && source[end] != '\n') {
        end += source[end] == '\\' && end + 1 < n && source[end + 1] == '\n'
                   ? 2
                   : 1;
      }
      std::string squished;
      squished.reserve(end - i);
      while (i < end) {
        char ch = source[i];
        if (ch == '\\' && i + 1 < n && source[i + 1] == '\n') {
          ch = ' ';  // a continuation reads as one blank
          i += 2;
          ++line;
          line_start = i;
        } else {
          ++i;
        }
        if (!is_space(ch) || (!squished.empty() && squished.back() != ' ')) {
          squished += is_space(ch) ? ' ' : ch;
        }
      }
      constexpr std::string_view kPragmaOmp = "#pragma omp";
      if (squished.rfind(kPragmaOmp, 0) == 0) {
        squished.erase(0, kPragmaOmp.size());
        tokens.push_back(Token{TokKind::kPragmaOmp, kNoSym,
                               std::move(squished), start_line, start_column});
      } else {
        std::string text;
        text.reserve(end - start);
        for (std::size_t k = start; k < end; ++k) {
          if (source[k] == '\\' && k + 1 < n && source[k + 1] == '\n') {
            text += ' ';
            ++k;
          } else {
            text += source[k];
          }
        }
        tokens.push_back(Token{TokKind::kHashLine, kNoSym, std::move(text),
                               start_line, start_column});
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

  tokens.push_back(Token{TokKind::kEof, kNoSym, "", line, column_of(i)});
  return tokens;
}

}  // namespace parade::translator

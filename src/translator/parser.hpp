// Recursive-descent parser producing the translator AST.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "translator/ast.hpp"
#include "translator/token.hpp"

namespace parade::translator {

/// Parses the lexer's output; the unit keeps `tokens` (moved in, so pass an
/// rvalue to avoid a copy) and every TokenSpan indexes into them. Each
/// identifier token is interned into the unit's symbol table, which also
/// holds the clause variables the directives name.
Result<TranslationUnit> parse(std::vector<Token> tokens);

/// The declared-type record of tokens [span.begin, span.end): the parser
/// builds one per declaration, parameter and declaring for-loop init.
DeclType parse_decl_type(const std::vector<Token>& tokens, TokenSpan span);

/// True when a rendering of the token run that starts at `begin` puts a
/// space between tokens[i - 1] and tokens[i] (i > begin).
bool space_before(const std::vector<Token>& tokens, std::size_t begin,
                  std::size_t i);

/// Appends the rendering of the token run [begin, end) to `out`, each token
/// spelled by `spell(token, out)`, which appends its text. Spacing follows
/// the tokens themselves, so the parser's texts and CodeGen's respelled
/// expressions share one rule.
template <typename Spell>
void render_tokens(std::string& out, const std::vector<Token>& tokens,
                   std::size_t begin, std::size_t end, Spell&& spell) {
  const std::size_t start = out.size();
  for (std::size_t i = begin; i < end; ++i) {
    if (out.size() > start && space_before(tokens, begin, i)) out += ' ';
    spell(tokens[i], out);
  }
}

/// Reconstructs source text from a token run [begin, end), each token as
/// lexed. Used by the parser for expression texts.
std::string render_tokens(const std::vector<Token>& tokens, std::size_t begin,
                          std::size_t end);

}  // namespace parade::translator

// Recursive-descent parser producing the translator AST.
#pragma once

#include "common/status.hpp"
#include "translator/ast.hpp"
#include "translator/token.hpp"

namespace parade::translator {

Result<TranslationUnit> parse(const std::vector<Token>& tokens);

/// Reconstructs source text from a token run [begin, end). Used by the parser
/// for expression texts and by CodeGen for respelled expressions.
std::string render_tokens(const std::vector<Token>& tokens, std::size_t begin,
                          std::size_t end);

}  // namespace parade::translator

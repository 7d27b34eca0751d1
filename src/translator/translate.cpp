#include "translator/translate.hpp"

#include <utility>

#include "translator/parser.hpp"
#include "translator/token.hpp"

namespace parade::translator {

Result<std::string> translate_source(const std::string& source,
                                     const TranslateOptions& options) {
  auto tokens = lex(source);
  if (!tokens.is_ok()) return tokens.status();
  auto unit = parse(std::move(tokens).value());
  if (!unit.is_ok()) return unit.status();
  AnalyzeOptions analyze_options;
  analyze_options.mp_threshold_bytes = options.mp_threshold_bytes;
  const Analysis analysis = analyze(unit.value(), analyze_options);
  return generate(unit.value(), options, analysis);
}

}  // namespace parade::translator

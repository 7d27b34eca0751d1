// C++ code generation from the annotated AST: the ParADE translation rules
// of paper §4 (parallel outlining, hybrid critical/atomic/reduction via
// collectives, single via broadcast, worksharing loops via the runtime loop
// scheduler, DSM placement of shared arrays).
#pragma once

#include "common/status.hpp"
#include "translator/analyze.hpp"
#include "translator/ast.hpp"

namespace parade::translator {

struct TranslateOptions {
  /// Include path of the generated code's support header.
  std::string support_include = "translator/xlat_support.hpp";
  /// Paper §5.2.1 small-data threshold (bytes); scalar synchronization under
  /// this size maps to collectives, larger falls back to DSM locks.
  std::size_t mp_threshold_bytes = 256;
  /// Emit a main() wrapper that launches the cluster (off for golden tests
  /// translating fragments).
  bool emit_main_wrapper = true;
  /// Unread: kept only because perfbench still assigns it.
  bool protocol_hints = true;
};

/// Emits code from an analysis the caller already ran (the placement and
/// critical/atomic collective-vs-lock decisions are read from `analysis`,
/// which must come from the same unit and threshold; CodeGen makes no
/// lowering decision of its own).
Result<std::string> generate(const TranslationUnit& unit,
                             const TranslateOptions& options,
                             const Analysis& analysis);

}  // namespace parade::translator

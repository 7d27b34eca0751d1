// Semantic analysis pass over the translator AST (paper §5.2: which
// synchronization constructs are "lexically analyzable" and which shared
// data can live in node-replicated storage). Builds a real symbol table
// (file/function/block scopes with declared types and byte sizes), infers
// per-variable sharing attributes in every parallel context, and runs a
// def-use walk that produces structured diagnostics plus the placement and
// update-vs-invalidate decisions CodeGen consumes. The update-vs-invalidate
// choice for a synchronized scalar is the paper's §5.2.1 threshold rule
// alone (handle_sync). See docs/ANALYZER.md.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "translator/ast.hpp"

namespace parade::translator {

struct AnalyzeOptions {
  /// Paper §5.2.1 small-data threshold: a synchronization-managed scalar
  /// whose declared size fits maps to update-by-collective, larger (or
  /// unknown-size) data falls back to DSM page consistency.
  std::size_t mp_threshold_bytes = 256;
  /// Run the CFG/dataflow pass (docs/ANALYZER.md): suppresses the known
  /// flow-insensitivity false positives of the def-use walk and adds the
  /// path-aware diagnostics (barrier.unmatched, lock.order_cycle,
  /// dsm.stale_read_loop).
  bool flow_sensitive = true;
  /// Unread: kept only because perfbench still assigns it.
  bool protocol_hints = true;
  /// DSM page size; only the static cost model reads it (page counts per
  /// symbol span, estimate_message_costs in translator/interfere.hpp).
  std::size_t page_bytes = 4096;
};

enum class Severity { kNote, kWarning, kError };

const char* to_string(Severity severity);

/// One structured finding. `code` is a stable dotted identifier (see
/// docs/ANALYZER.md for the full table); `line` refers to the input source.
struct Diagnostic {
  std::string code;
  Severity severity = Severity::kWarning;
  int line = 0;
  /// 1-based byte columns of the primary region on `line` (0 = unknown;
  /// end_column is exclusive). Resolved from the token stream: the first
  /// occurrence of `var` on the line, else the line's first token.
  int column = 0;
  int end_column = 0;
  std::string var;  // primary variable, empty when not variable-specific
  std::string message;
};

// Diagnostic codes (stable identifiers; tests assert on them).
inline constexpr const char* kDiagRaceSharedWrite = "race.shared_write";
inline constexpr const char* kDiagPrivateUninitRead = "private.uninit_read";
inline constexpr const char* kDiagReductionMisuse = "reduction.nonreduction_write";
inline constexpr const char* kDiagBarrierDivergence = "barrier.divergence";
inline constexpr const char* kDiagNowaitDependentRead = "nowait.dependent_read";
inline constexpr const char* kDiagSyncDsmFallback = "sync.dsm_fallback";
inline constexpr const char* kDiagAtomicNotUpdate = "sync.atomic_invalid";
inline constexpr const char* kDiagDefaultNoneMissing = "default.none_missing";
// Flow-sensitive diagnostics (CFG/dataflow pass, docs/ANALYZER.md).
inline constexpr const char* kDiagBarrierUnmatched = "barrier.unmatched";
inline constexpr const char* kDiagLockOrderCycle = "lock.order_cycle";
inline constexpr const char* kDiagStaleReadLoop = "dsm.stale_read_loop";
// Cross-region diagnostics (interference pass, translator/interfere.hpp).
inline constexpr const char* kDiagRaceCrossRegion = "race.cross_region";
inline constexpr const char* kDiagNowaitCrossRegionRead =
    "nowait.cross_region_read";

/// Where a file-scope variable is placed by the hybrid protocol selection.
enum class Placement {
  kReplicated,    // node-replicated, synchronization via collectives
  kDsmScalar,     // DSM pool scalar (HLRC page consistency)
  kDsmArray,      // DSM pool array
  kThreadprivate  // one instance per thread, never shared
};

const char* to_string(Placement placement);

struct VarClass {
  Placement placement = Placement::kReplicated;
  std::string type;          // declared base type text
  std::size_t byte_size = 0; // 0 = statically unknown
  std::string reason;        // why this placement was chosen
  int line = 0;              // declaration line
};

/// Per critical/atomic site (keyed by directive line): collective fast path
/// or DSM-lock fallback, with the reason recorded for diagnostics.
struct SyncDecision {
  bool collective = false;
  bool is_atomic = false;
  std::string var;     // update target when the pattern matched
  std::string reason;  // why the fallback was taken ("" when collective)
  int line = 0;
};

/// A scalar-update statement shape shared by the analyzer and CodeGen:
/// `x op= expr`, `x++`/`x--`, or `x = x op expr`, with no function calls in
/// the contribution expression.
struct UpdateShape {
  std::string var;
  std::string combine_op;  // operator combining per-thread contributions
  std::string apply_op;    // operator applying the combined value to var
  Expr expr;               // contribution expression (text "1" for x++/x--)
};

/// Purely syntactic matcher for UpdateShape over the statement tokens
/// [span.begin, span.end) of `tokens` (no symbol information; the analyzer
/// layers type/size/sharing checks on top of it).
std::optional<UpdateShape> match_scalar_update(const std::vector<Token>& tokens,
                                               TokenSpan span);

/// Per-parallel-region CFG/dataflow summary (surfaced by `--dataflow`).
struct RegionSummary {
  int line = 0;            // parallel construct line
  std::size_t blocks = 0;  // CFG basic blocks (incl. entry/exit)
  std::size_t edges = 0;
  std::size_t loops = 0;
  int suppressed = 0;      // def-use diagnostics retired by the flow pass
};

struct Analysis {
  std::vector<Diagnostic> diagnostics;
  std::map<std::string, VarClass> globals;  // file-scope variables
  std::map<int, SyncDecision> sync_sites;   // critical/atomic, by line
  /// Def-use findings the flow-sensitive pass proved spurious (kept for the
  /// --dataflow report; diagnostics ∪ suppressed == the flow-insensitive set).
  std::vector<Diagnostic> suppressed;
  std::vector<RegionSummary> regions;

  std::size_t count(Severity severity) const;
  bool has_errors() const { return count(Severity::kError) > 0; }
  std::size_t vars_collective() const;  // globals kept node-replicated
  std::size_t vars_dsm() const;         // globals placed in the DSM pool

  /// Human-readable report, one diagnostic per line:
  ///   <file>:<line>: <severity> [<code>] <message>
  std::string to_text(const std::string& file) const;
  /// JSON document (schema in docs/ANALYZER.md).
  std::string to_json(const std::string& file) const;
  /// Flow-pass report: per-region CFG shape plus every suppressed def-use
  /// finding with the reason the flow analysis retired it.
  std::string dataflow_report(const std::string& file) const;
};

/// Fills Diagnostic::column/end_column from the unit's tokens on the
/// diagnostic's line: the first identifier equal to `d->var` when it names
/// one, else the line's first token. Leaves 0 (unknown) when the line
/// carries no tokens. Shared by the analyzer and the
/// interference pass so every emission path agrees on column semantics.
void resolve_diag_columns(const TranslationUnit& unit, Diagnostic* d);

/// SARIF 2.1.0 log over one or more analyzed files (stable rule ids are the
/// kDiag* codes; parade_lint --sarif).
std::string sarif_report(
    const std::vector<std::pair<std::string, Analysis>>& files);

/// Analyzes a parsed unit. Total: diagnostics (including error severity) are
/// reported in the result, never as a failed Status.
Analysis analyze(const TranslationUnit& unit, const AnalyzeOptions& options = {});

/// Convenience wrapper: lex + parse + analyze. Fails only when the source
/// does not lex/parse.
Result<Analysis> analyze_source(const std::string& source,
                                const AnalyzeOptions& options = {});

/// Strict parser for the CLIs' --threshold=BYTES flag: rejects empty,
/// non-numeric, zero, and overflowing values (satellite fix: strtoul used to
/// accept garbage as 0, silently forcing everything onto the DSM path).
Result<std::size_t> parse_threshold_bytes(const std::string& text);

/// Declared byte size of `decl_type` (+ pointer/array shape); 0 if unknown.
/// Array sizes multiply out only when every dimension is an integer literal.
std::size_t sizeof_declared(const std::string& decl_type, int pointer_depth,
                            const std::vector<std::string>& array_dims);

}  // namespace parade::translator

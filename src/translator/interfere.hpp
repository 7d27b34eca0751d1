// Whole-program interference analysis (ROADMAP item 4, docs/ANALYZER.md
// "Region-sequence graph"). The sharing pattern that decides page behavior
// (ping-pong, producer->consumer, migratory, read-mostly) only emerges
// across the *sequence* of parallel regions and barriers. This pass:
//
//  1. builds a program-level region-sequence graph: every parallel construct
//     and serial gap in program order, cut into barrier-delimited *phases*
//     (global barriers, which bump the DSM epoch) and finer *steps* (also cut
//     by node-local order points such as a non-nowait `single`),
//  2. computes May-Happen-in-Parallel over the accesses: two accesses may
//     overlap iff they share a step, both run in parallel context, their
//     locksets are disjoint, and they are not serialized by the same
//     single/master instance (master is global thread 0, so master bodies
//     never overlap each other),
//  3. classifies each DSM symbol's page footprint per phase as read-mostly /
//     producer-consumer / migratory / ping-pong, which prices the cost
//     model (point 5),
//  4. emits the cross-region diagnostics race.cross_region and
//     nowait.cross_region_read, and
//  5. prices the timeline: a static message-cost estimate per construct
//     (`parade_lint --cost`), whose page spans come from each symbol's
//     affine per-construct footprint, checked end-to-end against observed
//     dsm.* counters.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "translator/analyze.hpp"
#include "translator/ast.hpp"

namespace parade::translator {

/// Cross-phase sharing classification of one symbol's page footprint
/// (docs/ANALYZER.md classification table).
enum class SharingPattern {
  kReadMostly,        // no writers in the phase
  kProducerConsumer,  // one writing phase feeding later reading phases
  kMigratory,         // sole writer per phase; writer may move across phases
  kPingPong           // concurrent writers inside one phase
};

const char* to_string(SharingPattern pattern);

/// One parallel construct (or serial gap) in the region-sequence graph,
/// in program order.
struct SeqConstruct {
  int id = -1;
  int line = 0;
  std::string kind;       // "parallel", "for", "sections", "single", ...
  int phase = 0;          // phase at construct entry
  int step = 0;           // step at construct entry
  bool parallel = false;  // body executes on the full team
  bool nowait = false;
  /// Body executes once per team member (directly under a parallel region,
  /// not split by worksharing or serialized by single/master).
  bool per_thread = false;
  long long trips = 1;    // total body executions per program run
  int sync_line = -1;     // critical/atomic: key into Analysis::sync_sites
};

/// One access to a file-scope symbol, annotated with its interference
/// coordinates on the region-sequence graph.
struct SeqAccess {
  std::string symbol;
  bool write = false;
  int line = 0;
  int phase = 0;
  int step = 0;
  int construct_id = -1;  // innermost SeqConstruct (-1 = serial code)
  long long trips = 1;    // estimated executions per program run
  bool parallel = false;  // reached in parallel context
  bool guarded = false;   // critical/atomic/single/master/ordered body
  bool in_critical = false;
  int serial_guard = -1;  // innermost single/master SeqConstruct id
  bool master_guard = false;  // serialized on global thread 0
  bool per_thread = false;    // executed once per team member
  /// Array access subscripted by the enclosing worksharing loop variable:
  /// the team touches disjoint affine slices, so concurrent writes do not
  /// contend for pages (modulo boundary sharing).
  bool partitioned = false;
  std::vector<std::string> locks;  // critical/atomic locks held (sorted)
};

/// The program-level region-sequence graph: constructs and accesses in
/// program order, with the phase/step decomposition. Edges are implicit —
/// consecutive steps are ordered, equal steps may interleave.
struct RegionSequence {
  std::vector<SeqConstruct> constructs;
  std::vector<SeqAccess> accesses;
  int phase_count = 1;
};

/// Builds the region-sequence graph for `unit`. `analysis` supplies symbol
/// placement and sync-site decisions (collective sites produce no DSM
/// traffic and their bodies' writes are propagation-managed).
RegionSequence build_region_sequence(const TranslationUnit& unit,
                                     const Analysis& analysis);

/// MHP over the region-sequence graph (rule 2 in the header comment).
bool may_happen_in_parallel(const SeqAccess& a, const SeqAccess& b);

/// Runs the interference pass: appends the cross-region diagnostics.
/// Called from analyze() when flow_sensitive is on.
void run_interference(const TranslationUnit& unit, Analysis* analysis);

/// Static message-cost prediction for one construct (totals across all
/// nodes; see docs/ANALYZER.md "Message-cost model" for the formulas).
struct ConstructCost {
  int line = 0;
  std::string kind;
  std::string detail;  // symbol / lock the traffic is attributed to
  double lock_acquires = 0;
  double page_fetches = 0;
  double diffs_created = 0;
};

struct CostReport {
  int nodes = 2;
  /// Documented accuracy contract: predictions are within this factor of
  /// the observed dsm.* counters (asserted end-to-end in the test suite).
  double tolerance_factor = 4.0;
  std::vector<ConstructCost> constructs;

  double total_lock_acquires() const;
  double total_page_fetches() const;
  double total_diffs_created() const;

  std::string to_text(const std::string& file) const;
  std::string to_json(const std::string& file) const;
};

/// Prices the region-sequence timeline for an `nodes`-node run (one worker
/// thread per node, the test harness configuration).
CostReport estimate_message_costs(const TranslationUnit& unit,
                                  const AnalyzeOptions& options,
                                  const Analysis& analysis, int nodes);

}  // namespace parade::translator

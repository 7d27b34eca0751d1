// Static protocol hints (docs/ANALYZER.md "Protocol hints").
//
// The affine footprint analysis estimates, per file-scope symbol, how much
// of it each parallel construct touches and at what read/write ratio. Hint
// synthesis lowers those footprints into per-symbol priors — prefer the
// update (collective) path or the invalidate (page) path, expected
// page-touch count, whether home migration is likely to help — which (a)
// refine codegen's raw mp_threshold_bytes comparison and (b) print as the
// `parade_omcc --hints=json` sidecar. The runtime does not read them: home
// migration is decided at each barrier from the write notices alone.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace parade::translator {

struct SymbolHint {
  std::string name;
  std::size_t byte_size = 0;       // declared size (0 = unknown)
  std::size_t reads = 0;           // accesses inside parallel constructs
  std::size_t writes = 0;
  std::size_t footprint_bytes = 0; // largest per-construct affine footprint
  int writer_constructs = 0;       // distinct parallel constructs writing it

  bool dsm = false;                // placed in the DSM pool
  bool offset_known = false;       // pool_offset mirrors codegen's shmalloc
  std::size_t pool_offset = 0;     // byte offset inside the DSM pool
  bool prefer_update = false;      // update-by-collective over invalidate
  bool migration_friendly = true;  // single-writer: home migration pays off
  std::size_t expected_page_touches = 0;
};

/// Cross-phase sharing classification of one symbol's page footprint
/// (interference pass, docs/ANALYZER.md classification table).
enum class SharingPattern {
  kReadMostly,        // no writers in the phase
  kProducerConsumer,  // one writing phase feeding later reading phases
  kMigratory,         // sole writer per phase; writer may move across phases
  kPingPong           // concurrent writers inside one phase
};

const char* to_string(SharingPattern pattern);

/// One phase-scoped hint range over the DSM pool: the [offset, offset+bytes)
/// slice of a symbol's placement, valid for exactly one program phase.
struct PhaseRange {
  std::string symbol;
  std::size_t offset = 0;  // byte offset inside the DSM pool
  std::size_t bytes = 0;
  SharingPattern pattern = SharingPattern::kReadMostly;
  bool prefer_update = false;
  bool migration_friendly = true;
};

/// All ranges active during one phase (phases are numbered from 0 in program
/// order; phase p runs in DSM epoch p + epoch_base).
struct PhaseHint {
  int index = 0;
  std::vector<PhaseRange> ranges;
};

struct ProtocolHints {
  std::size_t page_bytes = 4096;
  std::size_t threshold_bytes = 256;
  std::vector<SymbolHint> symbols;

  /// Phase-aware refinement (interference pass; empty = single-phase or the
  /// pass was disabled, in which case the whole-program symbol flags apply).
  std::vector<PhaseHint> phases;
  int phase_count = 0;  // barrier-delimited phases seen in the program
  /// DSM epoch that phase 0 starts at: 1 when codegen emits the shared-init
  /// barrier (epoch 0 is initialization), 0 otherwise.
  int epoch_base = 0;

  bool empty() const { return symbols.empty(); }
  const SymbolHint* find(const std::string& name) const;
  SymbolHint* find(const std::string& name);
  /// JSON sidecar printed by `parade_omcc --hints=json` (schema in
  /// docs/ANALYZER.md). Version 2: adds `epoch_base` and a `phases` array on
  /// top of the v1 per-symbol records.
  std::string to_json() const;
};

}  // namespace parade::translator

// Static protocol hints (docs/ANALYZER.md "Protocol hints").
//
// The affine footprint analysis estimates, per file-scope symbol, how much
// of it each parallel construct touches and at what read/write ratio. Hint
// synthesis lowers those footprints into one per-symbol prior — prefer the
// update (collective) path or the invalidate (page) path — which refines
// codegen's raw mp_threshold_bytes comparison for synchronization sites.
// The footprints also size the static cost model's page spans. The `hints`
// array of `parade_omcc --analyze=json` prints them; the runtime does not
// read them: home migration is decided at each barrier from the write
// notices alone.
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
  bool prefer_update = false;      // update-by-collective over invalidate
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

struct ProtocolHints {
  std::vector<SymbolHint> symbols;  // symbols accessed in parallel code

  const SymbolHint* find(const std::string& name) const;
  SymbolHint* find(const std::string& name);
};

}  // namespace parade::translator

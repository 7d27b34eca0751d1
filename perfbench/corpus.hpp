// Seeded generator of OpenMP C programs for the `translate` workload. The
// programs use only constructs the translator's parser accepts (parallel,
// parallel for, reduction, for nowait, barrier, single, critical, atomic)
// and are race-free, so the analyzer reports no errors on them. The seed
// picks the order of the constructs, the arrays, constants and operators;
// the program count, region count and construct mix are fixed so every seed
// does comparable work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct CorpusShape {
  int programs = 64;
  int regions_per_program = 200;
  int regions_per_function = 10;
};

/// One C translation unit holding `shape.regions_per_program` parallel
/// regions. Same (seed, index, shape) gives the same text on every host.
std::string generate_program(std::uint64_t seed, int index,
                             const CorpusShape& shape);

std::vector<std::string> generate_corpus(std::uint64_t seed,
                                         const CorpusShape& shape);

}  // namespace perfbench

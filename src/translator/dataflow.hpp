// Generic iterative dataflow engine over translator CFGs.
//
// Clients describe a bit-vector problem — direction, meet operator, and a
// per-block (gen, kill) transfer function — and the engine runs the standard
// worklist fixpoint: OUT[b] = gen[b] ∪ (IN[b] \ kill[b]) with IN[b] the meet
// over predecessors (successors for backward problems). Union meets start
// everything at bottom (empty); intersection meets start interior blocks at
// top (all ones) so unreached paths do not leak "false" facts into the meet.
#pragma once

#include <cstdint>
#include <vector>

#include "translator/cfg.hpp"

namespace parade::translator {

/// Fixed-width bit set sized at construction; the engine's lattice element.
/// Up to 64 bits live inline (the analyzer's sets are one bit or a region's
/// nowait constructs), so only wider sets touch the heap.
class BitSet {
 public:
  BitSet() = default;
  explicit BitSet(std::size_t bits) : bits_(bits) {
    if (bits > 64) heap_.assign((bits + 63) / 64, 0);
  }

  std::size_t size() const { return bits_; }
  bool test(std::size_t i) const {
    return (words()[i >> 6] >> (i & 63U)) & 1U;
  }
  void set(std::size_t i) { words()[i >> 6] |= std::uint64_t{1} << (i & 63U); }
  void reset(std::size_t i) {
    words()[i >> 6] &= ~(std::uint64_t{1} << (i & 63U));
  }
  void set_all() {
    for (std::size_t i = 0; i < word_count(); ++i) words()[i] = ~std::uint64_t{0};
    trim();
  }
  void clear() {
    for (std::size_t i = 0; i < word_count(); ++i) words()[i] = 0;
  }
  bool any() const {
    for (std::size_t i = 0; i < word_count(); ++i) {
      if (words()[i] != 0) return true;
    }
    return false;
  }

  BitSet& operator|=(const BitSet& o) {
    for (std::size_t i = 0; i < word_count(); ++i) words()[i] |= o.words()[i];
    return *this;
  }
  BitSet& operator&=(const BitSet& o) {
    for (std::size_t i = 0; i < word_count(); ++i) words()[i] &= o.words()[i];
    return *this;
  }
  /// this = this \ o
  BitSet& subtract(const BitSet& o) {
    for (std::size_t i = 0; i < word_count(); ++i) words()[i] &= ~o.words()[i];
    return *this;
  }
  bool operator==(const BitSet& o) const {
    if (word_count() != o.word_count()) return false;
    for (std::size_t i = 0; i < word_count(); ++i) {
      if (words()[i] != o.words()[i]) return false;
    }
    return true;
  }
  bool operator!=(const BitSet& o) const { return !(*this == o); }

 private:
  std::size_t word_count() const { return (bits_ + 63) / 64; }
  std::uint64_t* words() { return bits_ > 64 ? heap_.data() : &inline_; }
  const std::uint64_t* words() const {
    return bits_ > 64 ? heap_.data() : &inline_;
  }
  void trim() {
    const std::size_t tail = bits_ & 63U;
    if (tail != 0) words()[word_count() - 1] &= (std::uint64_t{1} << tail) - 1;
  }

  std::size_t bits_ = 0;
  std::uint64_t inline_ = 0;
  std::vector<std::uint64_t> heap_;  // used only above 64 bits
};

enum class FlowDirection { kForward, kBackward };
enum class MeetOp { kUnion, kIntersect };

/// Per-block transfer function in gen/kill form.
struct Transfer {
  BitSet gen;
  BitSet kill;
};

struct DataflowProblem {
  FlowDirection direction = FlowDirection::kForward;
  MeetOp meet = MeetOp::kUnion;
  std::size_t bits = 0;
  std::vector<Transfer> transfer;  // one per CFG block
  /// Boundary fact at the flow entry (CFG entry for forward, exit for
  /// backward). Defaults to empty when left unset.
  BitSet boundary;
};

struct FlowResult {
  std::vector<BitSet> in;   // fact at block start (flow order)
  std::vector<BitSet> out;  // fact at block end
  int iterations = 0;       // worklist pops until fixpoint
};

/// Runs the iterative worklist algorithm to fixpoint. Blocks unreachable in
/// the flow direction keep their initial value (bottom for union, top for
/// intersect).
FlowResult solve_dataflow(const Cfg& cfg, const DataflowProblem& problem);

}  // namespace parade::translator

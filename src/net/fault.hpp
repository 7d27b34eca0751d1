// Deterministic fault-injection plans and the retry knobs the DSM/MP layers
// use to survive them.
//
// A FaultPlan describes per-link misbehaviour — drop probability, bounded
// virtual-time delay, duplication, reordering, and partition/heal windows —
// driven by a seeded counter-based RNG: every link (src→dst) owns an
// independent stream keyed by (seed, src, dst), and each decision consumes
// exactly one draw per message, so a link's fault sequence is a pure function
// of the seed and that link's message sequence. FaultyFabric (net/faulty.hpp)
// executes the plan.
//
// Environment:
//   PARADE_FAULT_SEED   uint64 seed; setting it (even alone) enables faults
//   PARADE_FAULT_PLAN   comma-separated spec, e.g.
//                       "drop=0.05,dup=0.02,reorder=0.05,delay=0.1,delay_us=300,
//                        part=0-1@40:80,epart=1-2@2:3"
//   PARADE_RETRY_TIMEOUT_MS / PARADE_RETRY_MAX  retry policy overrides
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace parade::net {

/// Tag watched by FaultyFabric to advance its barrier-epoch estimate: each
/// master→rank-1 message with this tag closes one epoch. Mirrors
/// dsm::kTagBarrierDepart (static_assert'ed in dsm/protocol.hpp).
inline constexpr Tag kFaultEpochProbeTag = 6;

/// One partition window between a pair of nodes (both directions). `by_epoch`
/// selects whether [start, heal) is measured in per-link message count or in
/// fabric-observed barrier epochs. heal == no value → never heals.
struct PartitionEvent {
  NodeId a = kAnyNode;
  NodeId b = kAnyNode;
  std::uint64_t start = 0;
  std::optional<std::uint64_t> heal;
  bool by_epoch = false;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  double drop_p = 0.0;     ///< silently lose the message
  double dup_p = 0.0;      ///< deliver it twice
  double reorder_p = 0.0;  ///< hold it back until the link's next message
  double delay_p = 0.0;    ///< probability of a virtual-time delay
  double delay_max_us = 0.0;  ///< delay drawn uniformly from [0, max]
  std::vector<PartitionEvent> partitions;

  /// True when the plan can perturb traffic at all. A default-constructed
  /// plan is inert and FaultyChannel forwards byte-identically.
  bool active() const {
    return drop_p > 0.0 || dup_p > 0.0 || reorder_p > 0.0 || delay_p > 0.0 ||
           !partitions.empty();
  }

  /// Parses a PARADE_FAULT_PLAN spec ("drop=0.05,part=0-1@10:20,...").
  static Result<FaultPlan> parse(const std::string& spec,
                                 std::uint64_t seed = 0);

  /// Plan from PARADE_FAULT_SEED / PARADE_FAULT_PLAN; nullopt when neither
  /// is set. A seed without a plan spec yields the default chaos mix below.
  static std::optional<FaultPlan> from_env();
};

/// Default mix used when only PARADE_FAULT_SEED is given: a little of every
/// fault kind, recoverable by the stock retry policy.
FaultPlan default_chaos_plan(std::uint64_t seed);

/// Timeout/bounded-retry knobs shared by the DSM protocol loops and the MP
/// reliable wire layer. Defaults are deliberately generous so fault-free runs
/// never trip a spurious retransmission (several tests assert exact protocol
/// counts); chaos tests shorten them explicitly.
struct RetryPolicy {
  int timeout_ms = 2000;
  int max_attempts = 30;

  std::chrono::milliseconds timeout() const {
    return std::chrono::milliseconds(timeout_ms);
  }

  /// Applies PARADE_RETRY_TIMEOUT_MS / PARADE_RETRY_MAX on top of defaults.
  static RetryPolicy from_env();
};

/// One wait's share of a RetryPolicy: every DSM requester wait and MP's
/// reliable wire run out of retries here, and only here.
struct RetryBudget {
  RetryPolicy policy;
  NodeId node;
  const char* flight_reason;  ///< flight-recorder reason on exhaustion
  int attempts = 1;           ///< the first send is attempt 1

  /// Spends one silent timeout: OK while an attempt is left, else writes the
  /// flight record and returns kUnavailable "node N: <what()> within A retry
  /// timeouts of T ms: peer unreachable". Only then does `what` run.
  template <typename What>
  Status spend(const What& what) {
    if (attempts >= policy.max_attempts) return exhausted(what());
    ++attempts;
    return Status::ok();
  }
  Status exhausted(const std::string& what) const;
};

/// splitmix64: the counter-based generator behind every per-link stream.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic per-link random stream: draw() advances a counter through
/// splitmix64, yielding doubles in [0, 1).
class LinkRng {
 public:
  LinkRng() = default;
  LinkRng(std::uint64_t seed, NodeId src, NodeId dst)
      : state_(splitmix64(seed ^ (static_cast<std::uint64_t>(src) << 32 ^
                                  static_cast<std::uint64_t>(
                                      static_cast<std::uint32_t>(dst))))) {}

  double draw() {
    state_ = splitmix64(state_);
    return static_cast<double>(state_ >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_ = 0;
};

/// Bounded recently-seen-sequence-number window for duplicate suppression.
/// Keys are caller-defined (e.g. src<<32 | seq). Not thread-safe; callers
/// hold their own lock.
class SeqWindow {
 public:
  explicit SeqWindow(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Returns true if `key` was already present (a duplicate); otherwise
  /// records it, evicting the oldest entry beyond capacity.
  bool seen_or_insert(std::uint64_t key) {
    if (seen_.count(key) > 0) return true;
    seen_.insert(key);
    order_.push_back(key);
    if (order_.size() > capacity_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return false;
  }

 private:
  std::size_t capacity_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;
};

/// Packs (node, seq) into a SeqWindow key.
inline std::uint64_t seq_key(NodeId node, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) |
         seq;
}

}  // namespace parade::net

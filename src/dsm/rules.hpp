// Pure, side-effect-free transition rules of the HLRC/migratory-home
// protocol. This is the single source of truth for every protocol decision
// that used to be inlined in node.cpp/pagetable.cpp:
//
//   - the Figure 5 page state machine (legal edges, fault-path dispatch),
//   - home-migration tie-breaking at barrier time (§5.2.2),
//   - write-notice application (barrier departure and lock grants),
//   - sequence-number / dedup acceptance for the reliability layer (PR 2).
//
// Both the live DSM runtime (dsm/node.cpp) and the explicit-state model
// checker (src/verify/) call these functions, so the checker verifies the
// same code that ships. Everything here is a pure function of its
// arguments; no locks, no I/O, no global state.
//
// Mutation hooks: each rule takes a trailing `Mutation` parameter that
// defaults to kNone (the live runtime never passes anything else, and the
// default constant-folds away). The model checker's mutation-validation
// ctest flips one rule at a time and requires a counterexample for each
// mutant — see docs/MODEL_CHECKING.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "net/fault.hpp"

namespace parade::dsm {

/// Figure 5 page states (owned here so both pagetable.hpp and the model
/// checker share one definition).
enum class PageState : std::uint8_t {
  kInvalid,
  kTransient,
  kBlocked,
  kReadOnly,
  kDirty,
};

const char* to_string(PageState state);

namespace rules {

// ---------------------------------------------------------------------------
// Planted rule mutations (model-checker validation only).

enum class Mutation : std::uint8_t {
  kNone,
  /// Fault path upgrades an INVALID page straight to DIRTY without fetching.
  kIllegalStateEdge,
  /// Multi-modifier pages migrate to the smallest modifier id instead of
  /// staying at the current home (which holds the only merged copy).
  kWrongHomeTieBreak,
  /// Duplicate diffs re-apply instead of being absorbed by the seq window.
  kSkipDiffDedup,
  /// Page replies install whenever a fetch is outstanding, even when their
  /// sequence number belongs to a superseded fetch.
  kSkipReplySeqCheck,
  /// Barrier departure keeps every cached copy (skips invalidation).
  kKeepStaleCopy,
  /// The home forgets its peers' copies of a write-noticed page when it
  /// processes the departure, so a peer that refetched first goes unseen.
  kClearCopiesAtDeparture,
};

struct MutationInfo {
  Mutation mutation;
  const char* name;
  const char* summary;
};

inline constexpr MutationInfo kMutations[] = {
    {Mutation::kIllegalStateEdge, "illegal-state-edge",
     "write fault upgrades INVALID directly to DIRTY"},
    {Mutation::kWrongHomeTieBreak, "wrong-home-tie-break",
     "multi-modifier pages migrate to the smallest modifier"},
    {Mutation::kSkipDiffDedup, "skip-diff-dedup",
     "duplicate diffs re-apply at the home"},
    {Mutation::kSkipReplySeqCheck, "skip-reply-seq-check",
     "stale page replies install over a newer fetch"},
    {Mutation::kKeepStaleCopy, "keep-stale-copy",
     "departure processing never invalidates cached copies"},
    {Mutation::kClearCopiesAtDeparture, "clear-copies-at-departure",
     "the home clears its remote-copy flag when it processes a departure"},
};

inline const char* to_string(Mutation m) {
  for (const MutationInfo& info : kMutations) {
    if (info.mutation == m) return info.name;
  }
  return "none";
}

inline std::optional<Mutation> mutation_from_name(std::string_view name) {
  if (name == "none") return Mutation::kNone;
  for (const MutationInfo& info : kMutations) {
    if (name == info.name) return info.mutation;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Figure 5: legal state edges.

constexpr bool transition_allowed(PageState from, PageState to) {
  switch (from) {
    case PageState::kInvalid:
      // First faulting thread starts the fetch.
      return to == PageState::kTransient;
    case PageState::kTransient:
      // Another thread joins the wait, or the fetch completes.
      return to == PageState::kBlocked || to == PageState::kReadOnly ||
             to == PageState::kDirty;
    case PageState::kBlocked:
      // Fetch completes; waiters are woken.
      return to == PageState::kReadOnly || to == PageState::kDirty;
    case PageState::kReadOnly:
      // Write fault dirties; an incoming write notice invalidates.
      return to == PageState::kDirty || to == PageState::kInvalid;
    case PageState::kDirty:
      // Flush downgrades; a lock-grant write notice may invalidate.
      return to == PageState::kReadOnly || to == PageState::kInvalid;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Fault-path dispatch (the state half of DsmNode::handle_fault's loop).

enum class FaultAction : std::uint8_t {
  kStartFetch,     ///< INVALID: become TRANSIENT, request the page
  kJoinWaiters,    ///< TRANSIENT: become BLOCKED, wait for the fetch
  kWaitForFetch,   ///< BLOCKED: wait for the fetch
  kUpgradeToDirty, ///< READ_ONLY write fault: twin (if non-home) and dirty
  kDone,           ///< access can proceed (read on RO/DIRTY, write on DIRTY)
};

constexpr FaultAction fault_action(PageState state, bool is_write,
                                   Mutation m = Mutation::kNone) {
  switch (state) {
    case PageState::kInvalid:
      if (m == Mutation::kIllegalStateEdge && is_write) {
        return FaultAction::kUpgradeToDirty;
      }
      return FaultAction::kStartFetch;
    case PageState::kTransient:
      return FaultAction::kJoinWaiters;
    case PageState::kBlocked:
      return FaultAction::kWaitForFetch;
    case PageState::kReadOnly:
      return is_write ? FaultAction::kUpgradeToDirty : FaultAction::kDone;
    case PageState::kDirty:
      return FaultAction::kDone;
  }
  return FaultAction::kDone;
}

/// Non-home writers keep a twin so the flush can diff; the home itself needs
/// none — all diffs merge into its copy (§5.2.1).
constexpr bool needs_twin(NodeId home, NodeId self) { return home != self; }

/// A fetch is outstanding while the page is TRANSIENT or BLOCKED. Fault-path
/// waiters wait for this to turn false, not for a particular end state: the
/// installed copy can be invalidated again before they run.
constexpr bool fetch_in_flight(PageState state) {
  return state == PageState::kTransient || state == PageState::kBlocked;
}

// ---------------------------------------------------------------------------
// Reliability layer: sequence-number and dedup acceptance (PR 2).

/// Accept a page reply iff a fetch is outstanding for the page and the reply
/// echoes the outstanding fetch's sequence number. Anything else is a
/// retransmission artifact: a reply for a page no longer being fetched, or
/// for a superseded fetch, must be dropped rather than installed.
constexpr bool accept_page_reply(PageState state, std::uint32_t expected_seq,
                                 std::uint32_t reply_seq,
                                 Mutation m = Mutation::kNone) {
  const bool fetching = fetch_in_flight(state);
  if (m == Mutation::kSkipReplySeqCheck) return fetching;
  return fetching && reply_seq == expected_seq;
}

/// Accept a response (lock grant, release ack) iff it echoes the request's
/// sequence number; a mismatch is a duplicate answer to an older request.
constexpr bool accept_response_seq(std::uint32_t expected_seq,
                                   std::uint32_t got_seq) {
  return expected_seq == got_seq;
}

/// Decide whether an incoming diff applies. `seen` is any duplicate window
/// with SeqWindow's `bool seen_or_insert(uint64 key)` contract (the live
/// runtime passes net::SeqWindow; the model checker passes its own
/// canonical-state-friendly set). A duplicate must be re-acked — the sender
/// is still waiting — but never re-applied: the page may have moved on since
/// the original merge, and re-applying stale bytes would corrupt it.
template <typename SeenWindow>
bool accept_diff(SeenWindow& seen, NodeId src, std::uint32_t seq,
                 Mutation m = Mutation::kNone) {
  const bool duplicate = seen.seen_or_insert(net::seq_key(src, seq));
  if (m == Mutation::kSkipDiffDedup) return true;
  return !duplicate;
}

// ---------------------------------------------------------------------------
// Barrier message classification.
//
// With the k-ary tree barrier these rules apply *per gather edge*: every
// node with children is the "master" of its own subtree and classifies each
// child's arrival against the departure it last forwarded down that edge.
// The flat barrier is the degenerate tree where node 0 parents everyone, so
// there is exactly one rule set for both shapes (docs/SCALING.md).

enum class ArrivalAction : std::uint8_t {
  kRecord,             ///< fresh arrival for an open epoch: gather it
  kReAnswerClosedEpoch,///< child missed our departure: resend it
  kIgnoreStale,        ///< duplicate of an epoch older than the last close
};

/// Gather-side classification of an incoming BarrierArrive against the most
/// recently closed epoch on this edge (nullopt before the first departure).
constexpr ArrivalAction classify_barrier_arrival(
    Epoch arrive_epoch, const std::optional<Epoch>& last_depart_epoch) {
  if (last_depart_epoch.has_value() && arrive_epoch <= *last_depart_epoch) {
    return arrive_epoch == *last_depart_epoch
               ? ArrivalAction::kReAnswerClosedEpoch
               : ArrivalAction::kIgnoreStale;
  }
  return ArrivalAction::kRecord;
}

/// The barrier.epoch invariant, per gather edge: a recordable arrival must
/// open exactly the epoch after the last one departed on this edge (or epoch
/// 0 before any departure). A child can lag its parent by at most one epoch
/// — it cannot enter epoch e+1 before receiving the parent's departure for
/// epoch e — so anything else is a protocol bug, not reordering.
constexpr bool arrival_epoch_plausible(
    Epoch arrive_epoch, const std::optional<Epoch>& last_depart_epoch) {
  const Epoch expected =
      last_depart_epoch.has_value() ? *last_depart_epoch + 1 : 0;
  return arrive_epoch == expected;
}

enum class DepartAction : std::uint8_t {
  kProcess,          ///< departure for the epoch we are waiting on
  kIgnoreStale,      ///< duplicate departure of an older epoch
  kImpossibleFuture, ///< departure from the future: a protocol bug
};

/// Worker-side classification of an incoming BarrierDepart against the
/// epoch the worker is currently closing.
constexpr DepartAction classify_barrier_depart(Epoch depart_epoch,
                                               Epoch current_epoch) {
  if (depart_epoch < current_epoch) return DepartAction::kIgnoreStale;
  return depart_epoch == current_epoch ? DepartAction::kProcess
                                       : DepartAction::kImpossibleFuture;
}

// ---------------------------------------------------------------------------
// Home directory placement.

/// Initial home of a page before any migration. Historically every page
/// homed at node 0, which makes the first interval an O(nodes) fetch storm
/// against one node. Sharded placement stripes homes round-robin so the
/// directory load (and the first-touch traffic) spreads evenly; resolution
/// stays a pure O(1) function either way — no broadcast, no lookup table.
/// Both the live PageTable seed and the model checker's initial state call
/// this, so the checker verifies the placement the runtime ships.
constexpr NodeId default_home(PageId page, int nodes, bool sharded) {
  if (!sharded || nodes <= 1) return 0;
  return static_cast<NodeId>(page % nodes);
}

// ---------------------------------------------------------------------------
// Home migration (§5.2.2).

struct HomeDecision {
  NodeId new_home = 0;
  /// The single modifier this interval, or kAnyNode when several wrote.
  NodeId sole_modifier = kAnyNode;
};

/// Decide a write-noticed page's home for the next interval. Tie-break
/// order, highest priority first:
///   1. the interval's unique modifier (when migration is enabled) — it
///      holds the complete page, so migrating eliminates its future diffs;
///   2. the current home — with several modifiers it holds the only merged
///      copy, and the paper gives it the highest retention priority;
///   3. the smallest modifier id — a deterministic total-order fallback so
///      the rule is defined even without a valid current home.
inline HomeDecision choose_home(NodeId current_home,
                                const std::vector<NodeId>& modifiers,
                                bool migration_enabled,
                                Mutation m = Mutation::kNone) {
  HomeDecision decision;
  if (modifiers.empty()) {  // no notice, no change
    decision.new_home = current_home;
    return decision;
  }
  if (modifiers.size() == 1) {
    decision.sole_modifier = modifiers.front();
    decision.new_home = migration_enabled ? modifiers.front() : current_home;
    return decision;
  }
  const NodeId smallest =
      *std::min_element(modifiers.begin(), modifiers.end());
  if (m == Mutation::kWrongHomeTieBreak) {
    decision.new_home = smallest;
    return decision;
  }
  decision.new_home = current_home != kAnyNode ? current_home : smallest;
  return decision;
}

// ---------------------------------------------------------------------------
// Write-notice application.

/// Keep a cached copy across a barrier departure iff it is provably current:
/// we are the new home, we were the old home (all diffs merged into us), or
/// we were the interval's only modifier.
constexpr bool keep_copy_on_departure(NodeId self, NodeId new_home,
                                      NodeId old_home, NodeId sole_modifier,
                                      Mutation m = Mutation::kNone) {
  if (m == Mutation::kKeepStaleCopy) return true;
  return new_home == self || old_home == self || sole_modifier == self;
}

// ---------------------------------------------------------------------------
// Exclusive home pages.
//
// The home tracks, per page, whether some peer may hold a copy
// (`remote_copy`). A home DIRTY page no peer can hold stays DIRTY and
// writable across barriers (`exclusive`): its writes need no write fault, no
// flush downgrade and no write notice, because nobody has a copy to
// invalidate. The first serve ends exclusivity: the home downgrades the page
// to READ_ONLY before reading the bytes it serves, so every later home write
// faults and is noticed again. The serve itself sets `remote_copy`.

struct HomeFlush {
  bool keep_exclusive = false;  ///< stay DIRTY and writable, send no notice
  bool remote_copy = false;     ///< the flag's value after the flush
};

/// Flush of a DIRTY page at its home. Without a remote copy the page stays
/// exclusive. Otherwise it is downgraded and noticed; at a barrier that
/// notice invalidates every other copy (the home is a modifier, so it stays
/// home and no peer is a sole modifier), so the flag clears. A lock-release
/// flush sends no invalidating departure and keeps the flag.
constexpr HomeFlush home_flush(bool remote_copy, bool at_barrier) {
  if (!remote_copy) return {true, false};
  return {false, !at_barrier};
}

/// The home's remote_copy flag after it processes a departure entry for a
/// write-noticed page. It is set when a peer keeps a copy through the
/// departure: the old home when this node became home by migration, or a
/// remote sole modifier whose migration was vetoed. It is never cleared
/// here: a peer that processed this departure earlier may already have
/// fetched the page again, and that serve set the flag.
constexpr bool remote_copy_after_departure(bool remote_copy, NodeId self,
                                           NodeId new_home, NodeId old_home,
                                           NodeId sole_modifier,
                                           Mutation m = Mutation::kNone) {
  if (new_home != self) return remote_copy;  // only the home tracks copies
  const bool peer_keeps =
      old_home != self || (sole_modifier != kAnyNode && sole_modifier != self);
  if (peer_keeps) return true;
  return m == Mutation::kClearCopiesAtDeparture ? false : remote_copy;
}

/// The home.exclusive_unshared invariant: an exclusive page has no peer copy.
constexpr bool exclusive_unshared(bool exclusive, bool remote_copy) {
  return !exclusive || !remote_copy;
}

/// Departure invalidation only applies to states that hold application data;
/// in-flight fetches (TRANSIENT/BLOCKED) install a post-merge copy anyway.
constexpr bool invalidate_applies(PageState state) {
  return state == PageState::kReadOnly || state == PageState::kDirty;
}

/// What a lock-grant write notice does to this node's copy of a page that
/// another node modified under the lock. The copy goes unless we are the
/// home (diffs were merged into us) or the modifier. Conservative
/// lazy-release approximation — see DESIGN.md.
enum class NoticeAction : std::uint8_t {
  kKeep,        ///< no copy, or the copy is current
  kInvalidate,  ///< READ_ONLY copy: drop it
  kFlushFirst,  ///< DIRTY copy (written outside the lock): send this node's
                ///< own writes home, then drop it
  kAwaitFetch,  ///< fetch in flight, maybe served before the modification:
                ///< let it land, then drop it
};

constexpr NoticeAction lock_notice_action(PageState state, NodeId home,
                                          NodeId self, NodeId modifier) {
  if (modifier == self || home == self) return NoticeAction::kKeep;
  switch (state) {
    case PageState::kReadOnly:
      return NoticeAction::kInvalidate;
    case PageState::kDirty:
      return NoticeAction::kFlushFirst;
    case PageState::kTransient:
    case PageState::kBlocked:
      return NoticeAction::kAwaitFetch;
    case PageState::kInvalid:
      return NoticeAction::kKeep;
  }
  return NoticeAction::kKeep;
}

}  // namespace rules
}  // namespace parade::dsm

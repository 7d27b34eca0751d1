// Explicit-state model of the HLRC/migratory-home DSM protocol.
//
// The model is a small-world abstraction of src/dsm/node.cpp: N nodes (2-4),
// P pages (1-2), T threads per node, B barrier intervals, a barrier-tree
// fan-out (0 = flat), with every protocol *decision* delegated to the exact
// rule functions the live engine uses (dsm/rules.hpp) — the checker explores
// the same code that ships. Tree barriers reuse the flat machinery per edge:
// every node with children runs the gather protocol against its children and
// the non-root nodes forward one aggregated arrival to their parent.
// What the model abstracts away is data representation: a page copy is
// summarized as (base, contribs) — the barrier-stable version it derives
// from plus the bitmask of nodes whose current-interval writes are merged
// into it. Word-disjoint diff merges become contribs-mask unions; a copy is
// provably current when its base matches the page's stable version (or it
// carries every contribution of the just-closed interval). Virtual time and
// retry timers collapse to nondeterministic resend actions.
//
// The network is a multiset of in-flight messages; delivery picks any of
// them, which subsumes arbitrary reordering. Message drop and duplication
// from PR 2's fault model are explicit transitions gated by a per-run
// budget, so faulty executions are explored exhaustively up to that budget.
//
// Invariants checked (see docs/MODEL_CHECKING.md for the full table):
//   fig5.edge            every state change is a legal Figure 5 edge
//   home.agreement       all nodes agree on every page's home at each
//                        interval boundary (at most one home per interval)
//   home.holds_copy      the agreed home holds an installed copy
//   home.current         that copy carries the latest stable version
//   home.serves_current  live page requests are served from a current copy
//   diff.flushed         at departure time every write-noticed page's diffs
//                        have merged into the pre-migration home
//   diff.at_non_copy     diffs only merge into installed, current copies
//   dedup.double_apply   a (src, seq) diff never applies twice
//   read.stale           no thread reads a copy older than the last
//                        barrier-stable version
//   write.stale_base     no write upgrades a stale base copy
//   barrier.epoch        arrivals/departures only for plausible epochs
//   home.exclusive_unshared
//                        an exclusive home page has no remote-copy flag, and
//                        at interval boundaries no other node holds a copy
//   deadlock             every non-final state has an enabled action
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/topology.hpp"
#include "common/types.hpp"
#include "dsm/rules.hpp"

namespace parade::verify {

namespace rules = parade::dsm::rules;
using parade::dsm::PageState;

// ---------------------------------------------------------------------------
// Scenario: the small configuration to explore.

/// One thread-program step: read or write one page.
struct Op {
  bool write = false;
  PageId page = 0;
};

/// Per-thread program: ops[interval] is the op list the thread executes in
/// that interval before it joins the barrier.
struct ThreadProgram {
  std::vector<std::vector<Op>> ops;
};

struct Scenario {
  std::string name;
  std::string description;
  int nodes = 2;
  int pages = 1;
  int intervals = 1;
  bool home_migration = true;
  /// Barrier-tree fan-out (Topology semantics: <= 0 is the flat barrier,
  /// where the root parents every other node). Interior nodes gather their
  /// children's aggregated arrivals and forward one merged arrival up.
  int fanout = 0;
  /// Initial home placement: false pins every page to node 0 (the legacy
  /// directory), true uses rules::default_home's page -> page % nodes shard.
  bool sharded_homes = false;
  /// Fault budget folded into the transition relation: how many messages
  /// may be dropped / duplicated across one execution.
  int drop_budget = 0;
  int dup_budget = 0;
  /// programs[node][thread]; all nodes must list at least one thread.
  std::vector<std::vector<ThreadProgram>> programs;
};

/// The standard small configurations (CI runs every one of these to a
/// fixed point; the mutation runner searches them for counterexamples).
const std::vector<Scenario>& standard_scenarios();
const Scenario* find_scenario(const std::string& name);

// ---------------------------------------------------------------------------
// Messages.

enum class MsgKind : std::uint8_t {
  kPageRequest,
  kPageReply,
  kDiff,
  kDiffAck,
  kBarrierArrive,
  kBarrierDepart,
};

const char* to_string(MsgKind kind);
std::optional<MsgKind> msg_kind_from_name(const std::string& name);

struct DepartEntryM {
  PageId page = 0;
  NodeId new_home = 0;
  NodeId sole_modifier = kAnyNode;
  std::uint8_t modifiers = 0;  ///< bitmask of nodes that wrote the page

  auto operator<=>(const DepartEntryM&) const = default;
};

struct Msg {
  MsgKind kind = MsgKind::kPageRequest;
  NodeId src = 0;
  NodeId dst = 0;
  PageId page = -1;
  std::uint16_t seq = 0;
  std::uint16_t base = 0;  ///< payload: copy's stable base (reply/diff)
  std::uint8_t epoch = 0;  ///< barrier messages
  /// Reply/diff: contribs bitmask of the copy; arrive: write-notice page
  /// bitmask.
  std::uint8_t mask = 0;
  /// Depart: migration decisions. Arrive: the sending subtree's per-page
  /// modifier attribution (page + modifiers fields only) — an interior
  /// gather node cannot recover who-wrote-what from the union mask alone.
  std::vector<DepartEntryM> entries;

  /// Identity used by trace actions to name a message. Excludes `mask` and
  /// `entries`, which are functionally determined by the rest within one
  /// execution (up to equivalent payloads; ties resolve in sorted order).
  auto key() const { return std::tie(kind, src, dst, page, seq, epoch, base); }

  auto operator<=>(const Msg&) const = default;
};

// ---------------------------------------------------------------------------
// State.

struct PageView {
  PageState state = PageState::kInvalid;
  NodeId home = 0;
  std::uint16_t fetch_seq = 0;
  std::uint16_t base = 0;     ///< stable version this copy derives from
  std::uint8_t contribs = 0;  ///< current-interval writes merged in (mask)
  /// Home-side sharing state (rules::home_flush): some peer may hold a copy;
  /// the page is DIRTY and stays writable across barriers.
  bool remote_copy = false;
  bool exclusive = false;

  auto operator<=>(const PageView&) const = default;
};

struct ThreadM {
  std::uint8_t pc = 0;          ///< ops completed in the open interval
  std::int8_t waiting_page = -1;  ///< >= 0: parked on that page's fetch
  bool in_barrier = false;

  auto operator<=>(const ThreadM&) const = default;
};

struct PendingDiff {
  PageId page = 0;
  std::uint16_t seq = 0;
  std::uint16_t base = 0;
  std::uint8_t contribs = 0;
  NodeId dst = 0;

  auto operator<=>(const PendingDiff&) const = default;
};

enum class NodePhase : std::uint8_t {
  kComputing,  ///< threads executing ops
  kFlushing,   ///< all threads in barrier; diffs await acks
  kArrived,    ///< own arrival done; gathering children / awaiting depart
  kDone,       ///< final interval closed
};

const char* to_string(NodePhase phase);

struct NodeM {
  std::vector<PageView> pages;
  std::vector<ThreadM> threads;
  NodePhase phase = NodePhase::kComputing;
  std::uint8_t epoch = 0;
  std::uint8_t dirty = 0;           ///< DIRTY page bitmask
  std::uint8_t interval_dirty = 0;  ///< open interval's write notices
  std::uint16_t next_seq = 0;
  std::vector<PendingDiff> pending;  ///< diffs awaiting ack (flush order)
  std::set<std::uint64_t> diff_seen;  ///< merged (src,seq) keys (home role)
  // Barrier gather state, live on every node with tree children (in flat
  // mode that is just the root). arrivals maps a direct child to its
  // subtree's per-page modifier masks.
  std::map<NodeId, std::vector<std::uint8_t>> arrivals;
  std::int16_t last_depart_epoch = -1;      ///< -1: nothing closed yet
  std::vector<DepartEntryM> last_entries;

  auto operator<=>(const NodeM&) const = default;
};

struct State {
  std::vector<NodeM> nodes;
  std::vector<Msg> net;  ///< in-flight multiset, kept sorted
  std::vector<std::uint16_t> stable_ver;  ///< per page: closed-barrier version
  /// per page: open-interval writers. Ground truth, set by every write op
  /// whether or not a write notice will announce it (exclusive home pages
  /// write unnoticed); the stable version advances on it.
  std::vector<std::uint8_t> wrote;
  std::vector<std::uint8_t> last_wrote;   ///< per page: last closed interval's
                                          ///< writers (for lazy rebase)
  std::uint8_t drops_left = 0;
  std::uint8_t dups_left = 0;

  auto operator<=>(const State&) const = default;
};

// ---------------------------------------------------------------------------
// Actions.

enum class ActionKind : std::uint8_t {
  kThreadStep,    ///< node/thread executes its next op (or joins barrier)
  kDeliver,       ///< deliver one in-flight message (any order = reorder)
  kDrop,          ///< lose one in-flight message (budget)
  kDup,           ///< duplicate one in-flight message (budget)
  // Retransmissions model timeout recovery: they are enabled only when the
  // exchange is genuinely stuck (neither the message nor its response is in
  // flight). A retransmission racing its own original behaves exactly like
  // a duplicate, which the dup budget already explores.
  kResendFetch,   ///< fetch initiator retransmits its PageRequest
  kResendDiff,    ///< flusher retransmits an unacked Diff
  kResendArrive,  ///< node retransmits its aggregated BarrierArrive upward
  kMasterDepart,  ///< root closes the epoch and sends departures down
};

struct Action {
  ActionKind kind = ActionKind::kThreadStep;
  NodeId node = -1;
  int thread = -1;
  PageId page = -1;
  std::uint16_t seq = 0;
  /// Message identity for kDeliver/kDrop/kDup.
  MsgKind mkind = MsgKind::kPageRequest;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint16_t mbase = 0;
  std::uint8_t epoch = 0;

  auto operator<=>(const Action&) const = default;
};

/// One line of a counterexample trace, e.g.
/// "deliver page-reply src=0 dst=1 page=0 seq=1 epoch=0 base=2".
std::string to_string(const Action& action);
std::optional<Action> parse_action(const std::string& line);

struct Violation {
  std::string invariant;
  std::string detail;
};

// ---------------------------------------------------------------------------
// The model.

class Model {
 public:
  Model(Scenario scenario, rules::Mutation mutation);

  const Scenario& scenario() const { return scenario_; }
  rules::Mutation mutation() const { return mutation_; }

  State initial() const;
  /// All nodes closed their final interval (lingering reliability traffic
  /// may remain in flight; it is unobservable).
  bool done(const State& state) const;
  std::vector<Action> enabled(const State& state) const;
  /// True when `action` can fire in `state` (used by trace replay; the
  /// explorer only applies actions it enumerated itself).
  bool applicable(const State& state, const Action& action) const;
  /// Applies `action` in place (followed by inert-message collection).
  /// Returns the first invariant violation the step produced, if any.
  std::optional<Violation> apply(State& state, const Action& action) const;
  /// Canonical byte encoding for state hashing.
  std::string encode(const State& state) const;

 private:
  std::optional<Violation> apply_action(State& state,
                                        const Action& action) const;
  std::optional<Violation> thread_step(State& state, NodeId node,
                                       int thread) const;
  std::optional<Violation> start_flush(State& state, NodeId node) const;
  void arrive(State& state, NodeId node) const;
  /// Sends the aggregated arrival up the tree once `node` has arrived itself
  /// and recorded every direct child's subtree (no-op at the root, whose
  /// completion enables kMasterDepart instead).
  void maybe_forward_arrival(State& state, NodeId node) const;
  /// Per-page modifier masks of `node`'s whole subtree: its own open-interval
  /// notices merged with every recorded child arrival.
  std::vector<std::uint8_t> subtree_notices(const State& state,
                                            NodeId node) const;
  /// The aggregated BarrierArrive `node` sends to its parent (also used by
  /// kResendArrive, which must rebuild an identical message).
  Msg build_arrive(const State& state, NodeId node) const;
  std::optional<Violation> master_depart(State& state) const;
  std::optional<Violation> process_depart(
      State& state, NodeId node, std::uint8_t closed_epoch,
      const std::vector<DepartEntryM>& entries) const;
  std::optional<Violation> interval_boundary_checks(
      const State& state, std::uint8_t closed_epoch) const;
  std::optional<Violation> deliver(State& state, const Msg& msg) const;
  std::optional<Violation> set_state(PageView& view, NodeId node, PageId page,
                                     PageState to) const;

  void send(State& state, Msg msg) const;
  int count_in_net(const State& state, const Msg& msg) const;
  /// True when delivering `msg` is a no-op now and forever (seq/epoch
  /// counters are monotonic, so staleness is permanent). Only used with
  /// unmutated rules — mutations deliberately make stale messages bite.
  bool inert(const State& state, const Msg& msg) const;
  /// Drops inert messages after every transition (sound state merging:
  /// an inert message's only remaining effect is its own removal).
  void gc_net(State& state) const;
  /// True when the copy provably carries every write up to the last closed
  /// barrier (current base, or last-interval-complete and not yet rebased).
  bool copy_current(const State& state, const PageView& view,
                    PageId page) const;
  /// Eagerly applies the post-barrier rebase a copy is entitled to. Covers
  /// the window where a node serves a fetch after the master closed the
  /// barrier but before the node processed its own departure.
  void normalize(const State& state, PageView& view, PageId page) const;
  /// `node`'s place in the scenario's barrier tree.
  Topology topo_of(NodeId node) const {
    return Topology{node, scenario_.nodes, scenario_.fanout};
  }

  Scenario scenario_;
  rules::Mutation mutation_;
};

}  // namespace parade::verify

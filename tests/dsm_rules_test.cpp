// Unit tests for the pure protocol-transition rules (dsm/rules.hpp): the
// Figure 5 edge table, fault-path dispatch, reliability-layer acceptance,
// barrier classification (per tree edge), home-directory placement,
// home-migration tie-breaking, and write-notice application — plus the
// behavior flips of each planted mutation and the Topology value type the
// tree barrier is built on.
#include "dsm/rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/topology.hpp"

namespace parade::dsm {
namespace {

using rules::Mutation;

constexpr PageState kAllStates[] = {
    PageState::kInvalid, PageState::kTransient, PageState::kBlocked,
    PageState::kReadOnly, PageState::kDirty,
};

TEST(TransitionAllowed, MatchesFigure5EdgeTable) {
  // Exhaustive 5x5 table; rows are from-states in declaration order.
  const bool expected[5][5] = {
      // to:  INV    TRANS  BLOCK  RO     DIRTY
      {false, true, false, false, false},   // INVALID
      {false, false, true, true, true},     // TRANSIENT
      {false, false, false, true, true},    // BLOCKED
      {true, false, false, false, true},    // READ_ONLY
      {true, false, false, true, false},    // DIRTY
  };
  for (int from = 0; from < 5; ++from) {
    for (int to = 0; to < 5; ++to) {
      EXPECT_EQ(rules::transition_allowed(kAllStates[from], kAllStates[to]),
                expected[from][to])
          << to_string(kAllStates[from]) << " -> "
          << to_string(kAllStates[to]);
    }
  }
}

TEST(FaultAction, DispatchesByStateAndAccess) {
  EXPECT_EQ(rules::fault_action(PageState::kInvalid, false),
            rules::FaultAction::kStartFetch);
  EXPECT_EQ(rules::fault_action(PageState::kInvalid, true),
            rules::FaultAction::kStartFetch);
  EXPECT_EQ(rules::fault_action(PageState::kTransient, false),
            rules::FaultAction::kJoinWaiters);
  EXPECT_EQ(rules::fault_action(PageState::kBlocked, true),
            rules::FaultAction::kWaitForFetch);
  EXPECT_EQ(rules::fault_action(PageState::kReadOnly, false),
            rules::FaultAction::kDone);
  EXPECT_EQ(rules::fault_action(PageState::kReadOnly, true),
            rules::FaultAction::kUpgradeToDirty);
  EXPECT_EQ(rules::fault_action(PageState::kDirty, false),
            rules::FaultAction::kDone);
  EXPECT_EQ(rules::fault_action(PageState::kDirty, true),
            rules::FaultAction::kDone);
}

TEST(FaultAction, IllegalStateEdgeMutationSkipsTheFetch) {
  EXPECT_EQ(rules::fault_action(PageState::kInvalid, true,
                                Mutation::kIllegalStateEdge),
            rules::FaultAction::kUpgradeToDirty);
  // Reads are unaffected; the mutant only corrupts the write path.
  EXPECT_EQ(rules::fault_action(PageState::kInvalid, false,
                                Mutation::kIllegalStateEdge),
            rules::FaultAction::kStartFetch);
}

TEST(NeedsTwin, OnlyNonHomeWritersTwin) {
  EXPECT_FALSE(rules::needs_twin(/*home=*/2, /*self=*/2));
  EXPECT_TRUE(rules::needs_twin(/*home=*/0, /*self=*/2));
}

TEST(AcceptPageReply, RequiresOutstandingFetchWithMatchingSeq) {
  EXPECT_TRUE(rules::accept_page_reply(PageState::kTransient, 7, 7));
  EXPECT_TRUE(rules::accept_page_reply(PageState::kBlocked, 7, 7));
  // Superseded fetch: the reply echoes an older sequence number.
  EXPECT_FALSE(rules::accept_page_reply(PageState::kTransient, 7, 6));
  // No fetch outstanding at all.
  EXPECT_FALSE(rules::accept_page_reply(PageState::kReadOnly, 7, 7));
  EXPECT_FALSE(rules::accept_page_reply(PageState::kInvalid, 7, 7));
  EXPECT_FALSE(rules::accept_page_reply(PageState::kDirty, 7, 7));
}

TEST(AcceptPageReply, SkipReplySeqCheckMutationInstallsStaleReplies) {
  EXPECT_TRUE(rules::accept_page_reply(PageState::kTransient, 7, 6,
                                       Mutation::kSkipReplySeqCheck));
  // Still requires a fetch to be outstanding.
  EXPECT_FALSE(rules::accept_page_reply(PageState::kReadOnly, 7, 6,
                                        Mutation::kSkipReplySeqCheck));
}

TEST(AcceptResponseSeq, ExactEchoOnly) {
  EXPECT_TRUE(rules::accept_response_seq(3, 3));
  EXPECT_FALSE(rules::accept_response_seq(3, 2));
  EXPECT_FALSE(rules::accept_response_seq(3, 4));
}

struct TestWindow {
  std::set<std::uint64_t> seen;
  bool seen_or_insert(std::uint64_t key) { return !seen.insert(key).second; }
};

TEST(AcceptDiff, FirstDeliveryAppliesDuplicatesDoNot) {
  TestWindow window;
  EXPECT_TRUE(rules::accept_diff(window, /*src=*/1, /*seq=*/5));
  EXPECT_FALSE(rules::accept_diff(window, 1, 5));
  // Distinct senders and sequence numbers are independent.
  EXPECT_TRUE(rules::accept_diff(window, 2, 5));
  EXPECT_TRUE(rules::accept_diff(window, 1, 6));
}

TEST(AcceptDiff, SkipDiffDedupMutationReappliesDuplicates) {
  TestWindow window;
  EXPECT_TRUE(rules::accept_diff(window, 1, 5, Mutation::kSkipDiffDedup));
  EXPECT_TRUE(rules::accept_diff(window, 1, 5, Mutation::kSkipDiffDedup));
}

TEST(BarrierArrival, ClassifiesAgainstLastClosedEpoch) {
  // Before any departure, everything records.
  EXPECT_EQ(rules::classify_barrier_arrival(0, std::nullopt),
            rules::ArrivalAction::kRecord);
  // Fresh arrival for the open epoch.
  EXPECT_EQ(rules::classify_barrier_arrival(3, std::optional<Epoch>(2)),
            rules::ArrivalAction::kRecord);
  // The worker missed our departure: answer it again.
  EXPECT_EQ(rules::classify_barrier_arrival(2, std::optional<Epoch>(2)),
            rules::ArrivalAction::kReAnswerClosedEpoch);
  // Older duplicates are dropped.
  EXPECT_EQ(rules::classify_barrier_arrival(1, std::optional<Epoch>(2)),
            rules::ArrivalAction::kIgnoreStale);
}

TEST(BarrierDepart, ClassifiesAgainstCurrentEpoch) {
  EXPECT_EQ(rules::classify_barrier_depart(2, 2),
            rules::DepartAction::kProcess);
  EXPECT_EQ(rules::classify_barrier_depart(1, 2),
            rules::DepartAction::kIgnoreStale);
  EXPECT_EQ(rules::classify_barrier_depart(3, 2),
            rules::DepartAction::kImpossibleFuture);
}

TEST(ChooseHome, NoModifiersNoChange) {
  const auto d = rules::choose_home(2, {}, /*migration_enabled=*/true);
  EXPECT_EQ(d.new_home, 2);
  EXPECT_EQ(d.sole_modifier, kAnyNode);
}

TEST(ChooseHome, UniqueModifierWinsWhenMigrationEnabled) {
  const auto d = rules::choose_home(0, {3}, true);
  EXPECT_EQ(d.new_home, 3);
  EXPECT_EQ(d.sole_modifier, 3);
}

TEST(ChooseHome, UniqueModifierStaysPutWhenMigrationDisabled) {
  const auto d = rules::choose_home(0, {3}, false);
  EXPECT_EQ(d.new_home, 0);
  // sole_modifier is still reported so departure keep-rules see it.
  EXPECT_EQ(d.sole_modifier, 3);
}

TEST(ChooseHome, MultiModifierRetainsCurrentHome) {
  // With several modifiers the current home holds the only merged copy.
  const auto d = rules::choose_home(2, {1, 3}, true);
  EXPECT_EQ(d.new_home, 2);
  EXPECT_EQ(d.sole_modifier, kAnyNode);
}

TEST(ChooseHome, SmallestModifierIsTheFallbackWithoutAValidHome) {
  const auto d = rules::choose_home(kAnyNode, {3, 1, 2}, true);
  EXPECT_EQ(d.new_home, 1);
}

TEST(ChooseHome, WrongTieBreakMutationMigratesToSmallestModifier) {
  const auto d =
      rules::choose_home(2, {1, 3}, true, Mutation::kWrongHomeTieBreak);
  EXPECT_EQ(d.new_home, 1);
}

TEST(KeepCopyOnDeparture, KeepsOnlyProvablyCurrentCopies) {
  // New home keeps.
  EXPECT_TRUE(rules::keep_copy_on_departure(/*self=*/1, /*new_home=*/1,
                                            /*old_home=*/0,
                                            /*sole_modifier=*/kAnyNode));
  // Old home keeps: every diff merged into it.
  EXPECT_TRUE(rules::keep_copy_on_departure(0, 1, 0, kAnyNode));
  // The interval's only modifier holds the complete page.
  EXPECT_TRUE(rules::keep_copy_on_departure(2, 1, 0, 2));
  // Everyone else invalidates.
  EXPECT_FALSE(rules::keep_copy_on_departure(3, 1, 0, 2));
}

TEST(KeepCopyOnDeparture, KeepStaleCopyMutationNeverInvalidates) {
  EXPECT_TRUE(
      rules::keep_copy_on_departure(3, 1, 0, 2, Mutation::kKeepStaleCopy));
}

TEST(HomeFlush, UnsharedPagesStayExclusive) {
  EXPECT_TRUE(rules::home_flush(/*remote_copy=*/false, true).keep_exclusive);
  EXPECT_TRUE(rules::home_flush(false, false).keep_exclusive);
  // A shared page is downgraded and noticed; only the barrier's notice
  // invalidates every peer copy, so only the barrier clears the flag.
  EXPECT_FALSE(rules::home_flush(true, true).keep_exclusive);
  EXPECT_FALSE(rules::home_flush(true, true).remote_copy);
  EXPECT_FALSE(rules::home_flush(true, false).keep_exclusive);
  EXPECT_TRUE(rules::home_flush(true, false).remote_copy);
}

TEST(RemoteCopyAfterDeparture, SetWhenAPeerKeepsACopyNeverCleared) {
  // Migrated to us: the old home keeps its copy.
  EXPECT_TRUE(rules::remote_copy_after_departure(false, /*self=*/1,
                                                 /*new_home=*/1,
                                                 /*old_home=*/0,
                                                 /*sole_modifier=*/1));
  // Migration vetoed: the remote sole modifier keeps its copy.
  EXPECT_TRUE(rules::remote_copy_after_departure(false, 0, 0, 0, 1));
  // The home was a modifier: nobody keeps a copy, but the flag is left as
  // it is — a peer may already have refetched.
  EXPECT_TRUE(rules::remote_copy_after_departure(true, 0, 0, 0, 0));
  EXPECT_TRUE(rules::remote_copy_after_departure(true, 0, 0, 0, kAnyNode));
  EXPECT_FALSE(rules::remote_copy_after_departure(false, 0, 0, 0, 0));
  // Not the home: the flag is not ours to track.
  EXPECT_TRUE(rules::remote_copy_after_departure(true, 2, 1, 0, 1));
}

TEST(RemoteCopyAfterDeparture, ClearCopiesMutationForgetsRefetches) {
  EXPECT_FALSE(rules::remote_copy_after_departure(
      true, 0, 0, 0, 0, Mutation::kClearCopiesAtDeparture));
  EXPECT_TRUE(rules::remote_copy_after_departure(
      false, 0, 0, 0, 1, Mutation::kClearCopiesAtDeparture));
}

TEST(ExclusiveUnshared, ExclusiveImpliesNoRemoteCopy) {
  EXPECT_TRUE(rules::exclusive_unshared(false, false));
  EXPECT_TRUE(rules::exclusive_unshared(false, true));
  EXPECT_TRUE(rules::exclusive_unshared(true, false));
  EXPECT_FALSE(rules::exclusive_unshared(true, true));
}

TEST(InvalidateApplies, OnlyDataBearingStates) {
  EXPECT_TRUE(rules::invalidate_applies(PageState::kReadOnly));
  EXPECT_TRUE(rules::invalidate_applies(PageState::kDirty));
  EXPECT_FALSE(rules::invalidate_applies(PageState::kInvalid));
  EXPECT_FALSE(rules::invalidate_applies(PageState::kTransient));
  EXPECT_FALSE(rules::invalidate_applies(PageState::kBlocked));
}

TEST(LockNoticeAction, RemoteModificationDropsEveryCachedCopy) {
  using rules::NoticeAction;
  // Cached read-only copy, modified remotely, we are not the home: drop it.
  EXPECT_EQ(rules::lock_notice_action(PageState::kReadOnly, 0, 1, 2),
            NoticeAction::kInvalidate);
  // A copy this node dirtied outside the lock would keep the stale
  // lock-protected value: its own writes go home first, then it is dropped.
  EXPECT_EQ(rules::lock_notice_action(PageState::kDirty, 0, 1, 2),
            NoticeAction::kFlushFirst);
  // A fetch in flight may have been served before the modification merged.
  EXPECT_EQ(rules::lock_notice_action(PageState::kTransient, 0, 1, 2),
            NoticeAction::kAwaitFetch);
  EXPECT_EQ(rules::lock_notice_action(PageState::kBlocked, 0, 1, 2),
            NoticeAction::kAwaitFetch);
  // Our own modification never invalidates us, in any state.
  EXPECT_EQ(rules::lock_notice_action(PageState::kReadOnly, 0, 1, 1),
            NoticeAction::kKeep);
  EXPECT_EQ(rules::lock_notice_action(PageState::kDirty, 0, 1, 1),
            NoticeAction::kKeep);
  // The home keeps its merged copy, dirty or not.
  EXPECT_EQ(rules::lock_notice_action(PageState::kReadOnly, 1, 1, 2),
            NoticeAction::kKeep);
  EXPECT_EQ(rules::lock_notice_action(PageState::kDirty, 1, 1, 2),
            NoticeAction::kKeep);
  // Nothing cached, nothing to invalidate.
  EXPECT_EQ(rules::lock_notice_action(PageState::kInvalid, 0, 1, 2),
            NoticeAction::kKeep);
}

TEST(ArrivalEpochPlausible, ChildLagsParentByAtMostOneEpoch) {
  // First-ever arrival on an edge must be for epoch 0.
  EXPECT_TRUE(rules::arrival_epoch_plausible(0, std::nullopt));
  EXPECT_FALSE(rules::arrival_epoch_plausible(1, std::nullopt));
  // After closing epoch e, the only recordable arrival is e + 1; anything
  // else is either a re-answerable retransmission or a protocol bug, both
  // handled by classify_barrier_arrival instead.
  EXPECT_TRUE(rules::arrival_epoch_plausible(3, Epoch{2}));
  EXPECT_FALSE(rules::arrival_epoch_plausible(2, Epoch{2}));
  EXPECT_FALSE(rules::arrival_epoch_plausible(4, Epoch{2}));
  EXPECT_FALSE(rules::arrival_epoch_plausible(0, Epoch{2}));
}

TEST(DefaultHome, ShardsByPageModuloNodes) {
  // Legacy directory: everything on node 0.
  EXPECT_EQ(rules::default_home(0, 4, false), 0);
  EXPECT_EQ(rules::default_home(7, 4, false), 0);
  // Sharded: page p lives at p % N — O(1) lookup, no broadcast.
  EXPECT_EQ(rules::default_home(0, 4, true), 0);
  EXPECT_EQ(rules::default_home(5, 4, true), 1);
  EXPECT_EQ(rules::default_home(7, 4, true), 3);
  // Single-node clusters shard trivially to node 0.
  EXPECT_EQ(rules::default_home(7, 1, true), 0);
}

TEST(Topology, FlatIsTheDegenerateTree) {
  const Topology root = Topology::flat(0, 5);
  EXPECT_TRUE(root.valid());
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.effective_fanout(), 4);
  EXPECT_EQ(root.children(), (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(root.height(), 1);
  for (NodeId r = 1; r < 5; ++r) {
    const Topology t = root.with_rank(r);
    EXPECT_EQ(t.parent(), 0);
    EXPECT_EQ(t.num_children(), 0);
    EXPECT_EQ(t.depth(), 1);
  }
}

TEST(Topology, HeapShapedKaryTree) {
  // 8 nodes, fanout 2: 0 <- {1,2}, 1 <- {3,4}, 2 <- {5,6}, 3 <- {7}.
  const Topology t = Topology::tree(0, 8, 2);
  EXPECT_EQ(t.children(), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(t.with_rank(1).children(), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(t.with_rank(3).children(), (std::vector<NodeId>{7}));
  EXPECT_EQ(t.with_rank(4).num_children(), 0);
  EXPECT_EQ(t.with_rank(7).parent(), 3);
  EXPECT_EQ(t.with_rank(7).depth(), 3);
  EXPECT_EQ(t.height(), 3);
  EXPECT_EQ(t.describe(), "tree:2");
  // Every non-root rank's parent owns it as a child (128-node sweep).
  for (int fanout : {1, 2, 4, 16}) {
    const Topology big = Topology::tree(0, 128, fanout);
    for (NodeId r = 1; r < 128; ++r) {
      const auto kids = big.with_rank(big.with_rank(r).parent()).children();
      EXPECT_NE(std::find(kids.begin(), kids.end(), r), kids.end())
          << "fanout " << fanout << " rank " << r;
    }
  }
}

TEST(Topology, ParseBarrierSpec) {
  EXPECT_EQ(parse_barrier_spec("flat"), std::optional<int>{0});
  EXPECT_EQ(parse_barrier_spec("tree:1"), std::optional<int>{1});
  EXPECT_EQ(parse_barrier_spec("tree:16"), std::optional<int>{16});
  EXPECT_FALSE(parse_barrier_spec("").has_value());
  EXPECT_FALSE(parse_barrier_spec("tree").has_value());
  EXPECT_FALSE(parse_barrier_spec("tree:").has_value());
  EXPECT_FALSE(parse_barrier_spec("tree:0").has_value());
  EXPECT_FALSE(parse_barrier_spec("tree:-2").has_value());
  EXPECT_FALSE(parse_barrier_spec("tree:2x").has_value());
  EXPECT_FALSE(parse_barrier_spec("Tree:2").has_value());
  EXPECT_FALSE(parse_barrier_spec("tree:9999999").has_value());
}

TEST(MutationNames, RoundTripThroughTheRegistry) {
  EXPECT_EQ(rules::mutation_from_name("none"), Mutation::kNone);
  for (const auto& info : rules::kMutations) {
    const auto parsed = rules::mutation_from_name(info.name);
    ASSERT_TRUE(parsed.has_value()) << info.name;
    EXPECT_EQ(*parsed, info.mutation);
    EXPECT_STREQ(rules::to_string(info.mutation), info.name);
  }
  EXPECT_FALSE(rules::mutation_from_name("not-a-mutation").has_value());
}

}  // namespace
}  // namespace parade::dsm

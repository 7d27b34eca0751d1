// DSM building blocks: twin/diff codec (with randomized property tests),
// page-state machine, protocol wire round-trips. The segment pool / double
// mapping itself is covered by mapping_test.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "dsm/diff.hpp"
#include "dsm/notice.hpp"
#include "dsm/pagetable.hpp"
#include "dsm/protocol.hpp"

namespace parade::dsm {
namespace {

// ---------------------------------------------------------------------------
// Diff codec

TEST(Diff, EmptyWhenIdentical) {
  std::vector<std::uint8_t> page(4096, 3), twin(4096, 3);
  EXPECT_TRUE(encode_diff(page.data(), twin.data(), 4096).empty());
}

TEST(Diff, SingleWordRun) {
  std::vector<std::uint8_t> twin(4096, 0), page(4096, 0);
  page[100] = 9;  // one changed byte -> one 4-byte word run
  const auto diff = encode_diff(page.data(), twin.data(), 4096);
  ASSERT_EQ(diff.size(), 4u + 4u);  // header + one word
  std::uint16_t first = 0, words = 0;
  std::memcpy(&first, diff.data(), 2);
  std::memcpy(&words, diff.data() + 2, 2);
  EXPECT_EQ(first, 25u);  // bytes [100, 104)
  EXPECT_EQ(words, 1u);
  std::vector<std::uint8_t> target = twin;
  ASSERT_TRUE(apply_diff(target.data(), 4096, diff.data(), diff.size()));
  EXPECT_EQ(target, page);
  EXPECT_EQ(diff_payload_bytes(diff.data(), diff.size()), 4u);
}

TEST(Diff, AdjacentWordsCoalesce) {
  std::vector<std::uint8_t> twin(4096, 0), page(4096, 0);
  for (int i = 64; i < 90; ++i) page[static_cast<std::size_t>(i)] = 1;
  const auto diff = encode_diff(page.data(), twin.data(), 4096);
  EXPECT_EQ(diff.size(), 4u + 28u);  // one run of 7 words, bytes [64, 92)
}

TEST(Diff, WritersOfOneWordPairBothLand) {
  // Two nodes twin the same page and write the two 4-byte halves of one
  // 8-byte pair; merging both diffs at the home keeps both writes.
  std::vector<std::uint8_t> twin(4096, 0), a(4096, 0), b(4096, 0);
  const std::int32_t left = 11, right = 22;
  std::memcpy(a.data() + 8, &left, 4);
  std::memcpy(b.data() + 12, &right, 4);
  std::vector<std::uint8_t> home = twin;
  for (const auto* writer : {&a, &b}) {
    const auto diff = encode_diff(writer->data(), twin.data(), 4096);
    ASSERT_TRUE(apply_diff(home.data(), 4096, diff.data(), diff.size()));
  }
  std::int32_t got_left = 0, got_right = 0;
  std::memcpy(&got_left, home.data() + 8, 4);
  std::memcpy(&got_right, home.data() + 12, 4);
  EXPECT_EQ(got_left, left);
  EXPECT_EQ(got_right, right);
}

TEST(Diff, FullPage) {
  std::vector<std::uint8_t> twin(4096, 0), page(4096, 0xFF);
  const auto diff = encode_diff(page.data(), twin.data(), 4096);
  EXPECT_EQ(diff.size(), 4u + 4096u);
  std::vector<std::uint8_t> target = twin;
  ASSERT_TRUE(apply_diff(target.data(), 4096, diff.data(), diff.size()));
  EXPECT_EQ(target, page);
}

TEST(Diff, LargestPageSplitsRunsAtU16WordCount) {
  // A fully written 256 KiB page is 65536 words: one run of kMaxRunWords
  // and one of a single word, each with its 4-byte header.
  constexpr std::size_t kPage = kMaxDiffPageBytes;
  std::vector<std::uint8_t> twin(kPage, 0), page(kPage, 0xA5);
  const auto diff = encode_diff(page.data(), twin.data(), kPage);
  EXPECT_EQ(diff.size(), 2 * kDiffRunHeaderBytes + kPage);
  EXPECT_EQ(diff_payload_bytes(diff.data(), diff.size()), kPage);
  std::vector<std::uint8_t> target = twin;
  ASSERT_TRUE(apply_diff(target.data(), kPage, diff.data(), diff.size()));
  EXPECT_EQ(target, page);
}

TEST(Diff, RejectsMalformed) {
  std::vector<std::uint8_t> target(4096, 0);
  const std::uint8_t truncated[2] = {1, 2};  // half a run header
  EXPECT_FALSE(apply_diff(target.data(), 4096, truncated, 2));
  // A run header and its payload, bytes [first * 4, (first + words) * 4).
  const auto run = [](std::uint16_t first, std::uint16_t words,
                      std::size_t payload) {
    std::vector<std::uint8_t> bytes(4 + payload, 0);
    std::memcpy(bytes.data(), &first, 2);
    std::memcpy(bytes.data() + 2, &words, 2);
    return bytes;
  };
  const auto good = run(1020, 4, 16);  // the last 16 bytes of the page
  EXPECT_TRUE(apply_diff(target.data(), 4096, good.data(), good.size()));
  const auto past_page = run(1021, 4, 16);
  EXPECT_FALSE(
      apply_diff(target.data(), 4096, past_page.data(), past_page.size()));
  const auto empty_run = run(0, 0, 0);
  EXPECT_FALSE(
      apply_diff(target.data(), 4096, empty_run.data(), empty_run.size()));
  const auto short_payload = run(0, 4, 12);
  EXPECT_FALSE(apply_diff(target.data(), 4096, short_payload.data(),
                          short_payload.size()));
}

class DiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiffProperty, RandomRoundTrip) {
  // Property: apply(twin, encode(current, twin)) == current, for random
  // twins and random change densities.
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::vector<std::uint8_t> twin(4096), page(4096);
  for (auto& b : twin) b = static_cast<std::uint8_t>(rng());
  page = twin;
  const int changes = GetParam() * 37 % 4096;
  for (int c = 0; c < changes; ++c) {
    page[rng() % 4096] = static_cast<std::uint8_t>(rng());
  }
  const auto diff = encode_diff(page.data(), twin.data(), 4096);
  std::vector<std::uint8_t> target = twin;
  ASSERT_TRUE(apply_diff(target.data(), 4096, diff.data(), diff.size()));
  EXPECT_EQ(target, page);
  // Sparse changes must not ship the whole page.
  if (changes > 0 && changes < 64) {
    EXPECT_LT(diff.size(), 4096u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffProperty, ::testing::Range(1, 25));

// ---------------------------------------------------------------------------
// Page state machine (paper Figure 5)

TEST(PageState, AllowedTransitions) {
  using PS = PageState;
  EXPECT_TRUE(transition_allowed(PS::kInvalid, PS::kTransient));
  EXPECT_TRUE(transition_allowed(PS::kTransient, PS::kBlocked));
  EXPECT_TRUE(transition_allowed(PS::kTransient, PS::kReadOnly));
  EXPECT_TRUE(transition_allowed(PS::kBlocked, PS::kReadOnly));
  EXPECT_TRUE(transition_allowed(PS::kReadOnly, PS::kDirty));
  EXPECT_TRUE(transition_allowed(PS::kReadOnly, PS::kInvalid));
  EXPECT_TRUE(transition_allowed(PS::kDirty, PS::kReadOnly));
}

class PageStatePairs
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PageStatePairs, ForbiddenTransitionsStayForbidden) {
  const auto from = static_cast<PageState>(std::get<0>(GetParam()));
  const auto to = static_cast<PageState>(std::get<1>(GetParam()));
  // Invariants that must hold for every pair:
  if (from == to) {
    EXPECT_FALSE(transition_allowed(from, to));  // self loops are not events
  }
  if (to == PageState::kTransient) {
    // Only a fault on INVALID starts a fetch.
    EXPECT_EQ(transition_allowed(from, to), from == PageState::kInvalid);
  }
  if (to == PageState::kBlocked) {
    EXPECT_EQ(transition_allowed(from, to), from == PageState::kTransient);
  }
  if (from == PageState::kInvalid && to != PageState::kTransient) {
    EXPECT_FALSE(transition_allowed(from, to));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, PageStatePairs,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 5)));

TEST(PageTable, InitialHome) {
  PageTable table(16, /*initial_home=*/0);
  EXPECT_EQ(table.num_pages(), 16u);
  for (PageId p = 0; p < 16; ++p) {
    EXPECT_EQ(table.home_of(p), 0);
    EXPECT_EQ(table.entry(p).state, PageState::kInvalid);
  }
}

// ---------------------------------------------------------------------------
// Protocol wire round-trips

/// Encodes `msg` and decodes it back through the soft-fail decoder the
/// runtime runs on wire bytes.
template <typename T>
T round_trip(T msg) {
  auto decoded = codec<T>::try_decode(codec<T>::encode(std::move(msg)));
  EXPECT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  return decoded.is_ok() ? std::move(decoded).value() : T{};
}

TEST(Protocol, PageMessages) {
  PageReplyMsg reply{42, {1, 2, 3, 4, 5}};
  const auto decoded = round_trip(reply);
  EXPECT_EQ(decoded.page, 42);
  EXPECT_EQ(decoded.data, reply.data);

  EXPECT_EQ(round_trip(PageRequestMsg{7}).page, 7);
}

TEST(Protocol, DiffMessages) {
  DiffMsg diff{9, {0xA, 0xB}};
  const auto decoded = round_trip(diff);
  EXPECT_EQ(decoded.page, 9);
  EXPECT_EQ(decoded.diff, diff.diff);
  EXPECT_EQ(round_trip(DiffAckMsg{9}).page, 9);
}

// Layout pin for the two bulk frames. The runtime never runs codec<T> on
// them: serve_page_request and flush_pages write the fields straight into a
// WireBuffer, and receivers decode through PageReplyView / DiffView. The
// wire_fields layout is the reference both sides must agree with.
TEST(Protocol, PageReplyCodecMatchesServeEncodingAndView) {
  std::vector<std::uint8_t> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const PageReplyMsg reply{42, data, /*seq=*/7};
  const auto bytes = codec<PageReplyMsg>::encode(reply);

  // The serve path's field-by-field encoding (node.cpp).
  WireBuffer serve;
  serve.put(reply.page);
  serve.put(reply.seq);
  serve.put(static_cast<std::uint32_t>(data.size()));
  serve.put_bytes(data.data(), data.size());
  EXPECT_EQ(std::move(serve).take(), bytes);

  auto view = PageReplyView::from(bytes);
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  EXPECT_EQ(view.value().page, reply.page);
  EXPECT_EQ(view.value().seq, reply.seq);
  EXPECT_EQ(std::vector<std::uint8_t>(view.value().data.begin(),
                                      view.value().data.end()),
            data);
  // The view borrows the frame instead of copying it.
  EXPECT_EQ(view.value().data.data(), bytes.data() + bytes.size() - 256);
}

TEST(Protocol, DiffCodecMatchesFlushEncodingAndView) {
  std::vector<std::uint8_t> twin(4096, 0), page(4096, 0);
  for (std::size_t i = 64; i < 96; ++i) page[i] = 0x5A;
  page[4000] = 1;
  const DiffMsg diff{9, encode_diff(page.data(), twin.data(), 4096),
                     /*seq=*/11};
  ASSERT_FALSE(diff.diff.empty());
  const auto bytes = codec<DiffMsg>::encode(diff);

  // The flush path's streamed encoding (node.cpp).
  WireBuffer flush;
  flush.put(diff.page);
  flush.put(diff.seq);
  EXPECT_EQ(append_diff(flush, page.data(), twin.data(), 4096),
            diff.diff.size());
  EXPECT_EQ(std::move(flush).take(), bytes);

  auto view = DiffView::from(bytes);
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  EXPECT_EQ(view.value().page, diff.page);
  EXPECT_EQ(view.value().seq, diff.seq);
  EXPECT_EQ(std::vector<std::uint8_t>(view.value().diff.begin(),
                                      view.value().diff.end()),
            diff.diff);
}

TEST(Protocol, BarrierMessages) {
  // Notice stream for pages {1, 2, 30} dirtied by this subtree's node 3.
  BarrierArriveMsg arrive{5, notice::pack_notices({{3, {1, 2, 30}}})};
  const auto a = round_trip(arrive);
  EXPECT_EQ(a.epoch, 5);
  EXPECT_EQ(a.notice_stream, arrive.notice_stream);
  const auto blocks = notice::try_unpack_notices(a.notice_stream, 8, 64);
  ASSERT_TRUE(blocks.has_value());
  ASSERT_EQ(blocks->size(), 1u);
  EXPECT_EQ((*blocks)[0].modifier, 3);
  EXPECT_EQ((*blocks)[0].pages, (std::vector<PageId>{1, 2, 30}));

  BarrierDepartMsg depart;
  depart.epoch = 5;
  depart.departure_vtime = 123.5;
  depart.entries = {{1, 2, 2}, {30, 0, kAnyNode}};
  const auto d = round_trip(depart);
  EXPECT_EQ(d.epoch, 5);
  EXPECT_DOUBLE_EQ(d.departure_vtime, 123.5);
  ASSERT_EQ(d.entries.size(), 2u);
  EXPECT_EQ(d.entries[0].page, 1);
  EXPECT_EQ(d.entries[0].new_home, 2);
  EXPECT_EQ(d.entries[0].sole_modifier, 2);
  EXPECT_EQ(d.entries[1].sole_modifier, kAnyNode);
}

TEST(Protocol, LockMessages) {
  EXPECT_EQ(round_trip(LockAcquireMsg{3}).lock_id, 3);

  LockGrantMsg grant{3, {{10, 1}, {11, 2}}};
  const auto g = round_trip(grant);
  EXPECT_EQ(g.lock_id, 3);
  ASSERT_EQ(g.notices.size(), 2u);
  EXPECT_EQ(g.notices[1].page, 11);
  EXPECT_EQ(g.notices[1].modifier, 2);

  LockReleaseMsg release{3, {10, 11}};
  EXPECT_EQ(round_trip(release).dirtied_pages, release.dirtied_pages);
}

// The codec is generic over wire_fields(); a wire-format pin: vector element
// structs are memcpy'd, so their layout is the wire layout.
TEST(Protocol, CodecWireFormatStable) {
  BarrierDepartMsg depart;
  depart.epoch = 7;
  depart.departure_vtime = 1.0;
  depart.entries = {{3, 1, kAnyNode}};
  const auto bytes = codec<BarrierDepartMsg>::encode(depart);
  // epoch(8) + vtime(8) + count(4) + one 12-byte DepartEntry.
  EXPECT_EQ(bytes.size(), 8u + 8u + 4u + 12u);

  const auto grant_bytes =
      codec<LockGrantMsg>::encode(LockGrantMsg{1, {{2, 3}}, 9});
  // lock_id(4) + seq(4) + count(4) + one 8-byte WriteNotice.
  EXPECT_EQ(grant_bytes.size(), 4u + 4u + 4u + 8u);
}

TEST(Protocol, CommThreadTagPartition) {
  EXPECT_TRUE(comm_thread_tag(kTagPageRequest));
  EXPECT_TRUE(comm_thread_tag(kTagDiff));
  // Barrier arrivals are gathered by the master's comm thread so lost
  // departures can be re-answered; departures still go to the barrier caller.
  EXPECT_TRUE(comm_thread_tag(kTagBarrierArrive));
  EXPECT_FALSE(comm_thread_tag(kTagBarrierDepart));
  EXPECT_FALSE(comm_thread_tag(kTagDiffAck));
  EXPECT_FALSE(comm_thread_tag(kTagLockGrantBase + 5));
}

}  // namespace
}  // namespace parade::dsm

// Wire-codec robustness: frames straight off the wire may be truncated, carry
// trailing garbage, or have corrupted length prefixes. try_decode and the
// PageReply/Diff span views must reject them with a Status — never crash, never allocate from a hostile length
// prefix — and WireBuffer must validate counts against the bytes actually
// present before reserving memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "dsm/diff.hpp"
#include "dsm/notice.hpp"
#include "dsm/protocol.hpp"

namespace parade::dsm {
namespace {

template <typename T>
void expect_rejects_truncations_and_trailing(const T& msg) {
  const auto bytes = codec<T>::encode(msg);
  ASSERT_FALSE(bytes.empty());

  // Every proper prefix must fail: fixed-width fields underrun, and a
  // length-prefixed vector either loses its count or its elements.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(len));
    const auto result = codec<T>::try_decode(cut);
    EXPECT_FALSE(result.is_ok()) << "accepted truncation at " << len;
  }

  // Trailing bytes must fail too (a frame is exactly one message).
  for (std::size_t extra : {1u, 3u, 16u}) {
    auto padded = bytes;
    padded.insert(padded.end(), extra, 0xAB);
    const auto result = codec<T>::try_decode(padded);
    EXPECT_FALSE(result.is_ok()) << "accepted " << extra << " trailing bytes";
  }

  // The pristine frame still round-trips.
  EXPECT_TRUE(codec<T>::try_decode(bytes).is_ok());
}

TEST(CodecFuzz, TruncationAndTrailingRejected) {
  expect_rejects_truncations_and_trailing(PageRequestMsg{3, 9});
  expect_rejects_truncations_and_trailing(
      PageReplyMsg{3, {0x10, 0x20, 0x30, 0x40}, 9});
  expect_rejects_truncations_and_trailing(DiffMsg{5, {1, 2, 3, 4, 5}, 11});
  expect_rejects_truncations_and_trailing(DiffAckMsg{5, 11});
  expect_rejects_truncations_and_trailing(
      BarrierArriveMsg{4, notice::pack_notices({{0, {1, 2}}, {2, {1, 5}}})});
  BarrierDepartMsg depart;
  depart.epoch = 4;
  depart.departure_vtime = 2.5;
  depart.entries = {{7, 1, 2}, {9, 0, kAnyNode}};
  expect_rejects_truncations_and_trailing(depart);
  expect_rejects_truncations_and_trailing(LockAcquireMsg{2, 13});
  expect_rejects_truncations_and_trailing(LockGrantMsg{2, {{8, 1}}, 13});
  expect_rejects_truncations_and_trailing(LockReleaseMsg{2, {8, 9}, 14});
  expect_rejects_truncations_and_trailing(LockReleaseAckMsg{2, 14});
}

TEST(CodecFuzz, HostileLengthPrefixFailsWithoutAllocating) {
  // lock_id + seq + count=0xFFFFFFFF and no element bytes: must reject
  // instead of attempting a ~32 GiB WriteNotice allocation.
  WireBuffer hostile;
  hostile.put<std::int32_t>(1);
  hostile.put<std::uint32_t>(7);
  hostile.put<std::uint32_t>(0xFFFFFFFFu);
  const auto result =
      codec<LockGrantMsg>::try_decode(std::move(hostile).take());
  ASSERT_FALSE(result.is_ok());

  // Same through the raw buffer API.
  WireBuffer raw;
  raw.put<std::uint32_t>(0xFFFFFFFFu);
  WireBuffer reader{std::move(raw).take()};
  const auto values = reader.get_vector<std::uint64_t>();
  EXPECT_TRUE(values.empty());
  EXPECT_FALSE(reader.ok());
}

TEST(CodecFuzz, BitFlipsNeverCrash) {
  // A real flush frame: a 256-byte page with two runs of changed words.
  constexpr std::size_t kPage = 256;
  std::vector<std::uint8_t> twin(kPage, 0), page(kPage, 0);
  for (std::size_t i = 8; i < 24; ++i) {
    page[i] = static_cast<std::uint8_t>(i * 7);
  }
  for (std::size_t i = 100; i < 132; ++i) {
    page[i] = static_cast<std::uint8_t>(i);
  }
  const DiffMsg msg{12, encode_diff(page.data(), twin.data(), kPage), 99};
  const auto pristine = codec<DiffMsg>::encode(msg);

  // Single-bit flips across the whole frame: each either still decodes (a
  // flip inside the payload is a legal different message) or fails cleanly.
  // A frame that decodes may carry a damaged run header: apply_diff rejects
  // it or writes inside the page, never into the guard bytes past it.
  int rejected = 0;
  int runs_rejected = 0;
  for (std::size_t bit = 0; bit < pristine.size() * 8; ++bit) {
    auto mutated = pristine;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto result = codec<DiffMsg>::try_decode(mutated);
    if (!result.is_ok()) {
      ++rejected;
      continue;
    }
    const std::vector<std::uint8_t>& diff = result.value().diff;
    std::vector<std::uint8_t> target(kPage + 16, 0xEE);
    if (!apply_diff(target.data(), kPage, diff.data(), diff.size())) {
      ++runs_rejected;
    }
    EXPECT_TRUE(std::all_of(target.begin() + kPage, target.end(),
                            [](std::uint8_t b) { return b == 0xEE; }))
        << "bit " << bit;
  }
  // Flips inside the count prefix and inside the run headers must have
  // produced rejections.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(runs_rejected, 0);
}

TEST(CodecFuzz, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(20260805);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> garbage(rng() % 96);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    // Exercise several message shapes; outcomes are irrelevant, surviving is
    // the property.
    (void)codec<PageReplyMsg>::try_decode(garbage);
    (void)codec<BarrierDepartMsg>::try_decode(garbage);
    (void)codec<LockGrantMsg>::try_decode(garbage);
    (void)codec<DiffMsg>::try_decode(garbage);
  }
}

// ---- span views (PageReplyView / DiffView) ----
//
// The runtime decodes page replies and diffs off the wire through these
// views, never through codec<T>. Each view must reject exactly the frames
// codec<T>::try_decode rejects, agree with it field by field on the frames
// both accept, and only ever hand out spans inside the frame.

bool same_bytes(std::span<const std::uint8_t> span,
                const std::vector<std::uint8_t>& vec) {
  return std::equal(span.begin(), span.end(), vec.begin(), vec.end());
}

bool inside(std::span<const std::uint8_t> part,
            const std::vector<std::uint8_t>& frame) {
  return part.empty() || (part.data() >= frame.data() &&
                          part.data() + part.size() <= frame.data() +
                                                           frame.size());
}

/// Differential check of one frame; returns whether the view accepted it.
bool check_page_reply_view(const std::vector<std::uint8_t>& frame) {
  const auto view = PageReplyView::from(frame);
  const auto owned = codec<PageReplyMsg>::try_decode(frame);
  EXPECT_EQ(view.is_ok(), owned.is_ok());
  if (!view.is_ok() || !owned.is_ok()) return view.is_ok();
  const PageReplyView& v = view.value();
  const PageReplyMsg& m = owned.value();
  EXPECT_EQ(v.page, m.page);
  EXPECT_EQ(v.seq, m.seq);
  EXPECT_TRUE(same_bytes(v.data, m.data));
  EXPECT_TRUE(inside(v.data, frame));
  return true;
}

bool check_diff_view(const std::vector<std::uint8_t>& frame) {
  const auto view = DiffView::from(frame);
  const auto owned = codec<DiffMsg>::try_decode(frame);
  EXPECT_EQ(view.is_ok(), owned.is_ok());
  if (!view.is_ok() || !owned.is_ok()) return view.is_ok();
  const DiffView& v = view.value();
  const DiffMsg& m = owned.value();
  EXPECT_EQ(v.page, m.page);
  EXPECT_EQ(v.seq, m.seq);
  EXPECT_TRUE(same_bytes(v.diff, m.diff));
  EXPECT_TRUE(inside(v.diff, frame));
  return true;
}

template <typename Check>
void expect_view_rejects_truncations_and_trailing(
    const std::vector<std::uint8_t>& bytes, Check check) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(check(cut)) << "accepted truncation at " << len;
  }
  for (std::size_t extra : {1u, 3u, 16u}) {
    auto padded = bytes;
    padded.insert(padded.end(), extra, 0xAB);
    EXPECT_FALSE(check(padded)) << "accepted " << extra << " trailing bytes";
  }
  EXPECT_TRUE(check(bytes));
}

TEST(ViewFuzz, TruncationAndTrailingRejected) {
  expect_view_rejects_truncations_and_trailing(
      codec<PageReplyMsg>::encode(PageReplyMsg{3, {0x10, 0x20, 0x30}, 9}),
      check_page_reply_view);
  expect_view_rejects_truncations_and_trailing(
      codec<DiffMsg>::encode(DiffMsg{5, {1, 2, 3, 4, 5}, 11}),
      check_diff_view);
}

TEST(ViewFuzz, HostileLengthPrefixRejected) {
  // page + seq + count=0xFFFFFFFF followed by a few bytes: the count must
  // be checked against the bytes present, with no overflow.
  WireBuffer reply;
  reply.put<PageId>(1);
  reply.put<std::uint32_t>(2);
  reply.put<std::uint32_t>(0xFFFFFFFFu);
  reply.put_bytes("abcd", 4);
  EXPECT_FALSE(check_page_reply_view(std::move(reply).take()));

  WireBuffer diff;
  diff.put<PageId>(1);
  diff.put<std::uint32_t>(2);
  diff.put<std::uint32_t>(0xFFFFFFF0u);
  diff.put_bytes("abcd", 4);
  EXPECT_FALSE(check_diff_view(std::move(diff).take()));
}

TEST(ViewFuzz, BitFlipsAgreeWithCodec) {
  std::vector<std::uint8_t> data(48);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 11);
  }
  // Single-bit flips across each frame: the view and the codec agree on
  // every outcome, and flips inside the count prefix must reject.
  const auto rejections = [](const std::vector<std::uint8_t>& frame,
                             auto check) {
    int rejected = 0;
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      auto mutated = frame;
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      if (!check(mutated)) ++rejected;
    }
    return rejected;
  };
  EXPECT_GT(rejections(codec<PageReplyMsg>::encode({7, data, 5}),
                       check_page_reply_view),
            0);
  EXPECT_GT(rejections(codec<DiffMsg>::encode({7, data, 5}), check_diff_view),
            0);
}

TEST(ViewFuzz, RandomGarbageAgreesWithCodec) {
  std::mt19937_64 rng(20261016);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> garbage(rng() % 48);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    // Plant a consistent count prefix (PageReply's at byte 12, Diff's at 8)
    // so some frames parse instead of all failing.
    if (garbage.size() >= 16) {
      const std::size_t at = round % 2 == 0 ? 12 : 8;
      const auto count = static_cast<std::uint32_t>(garbage.size() - at - 4);
      std::memcpy(garbage.data() + at, &count, sizeof(count));
    }
    (void)check_page_reply_view(garbage);
    (void)check_diff_view(garbage);
  }
}

// ---- interval-vector write-notice streams (dsm/notice.hpp) ----
//
// The stream rides inside BarrierArriveMsg, so codec<T> already rejects
// framing damage; these cover the semantic layer: try_unpack_notices must
// soft-fail on malformed streams and never size an allocation from hostile
// counts.

TEST(NoticeFuzz, RoundTripCoalescesIntervals) {
  const std::vector<notice::NoticeBlock> blocks = {
      {0, {0, 1, 2, 3}},          // one dense run
      {2, {5}},                    // singleton
      {5, {1, 2, 7, 8, 9, 63}},    // three runs with gaps
  };
  const auto stream = notice::pack_notices(blocks);
  // Dense runs collapse: block 0 is 4 words (modifier, count, gap, len).
  ASSERT_EQ(stream.size(), 4u + 4u + 8u);
  const auto back = notice::try_unpack_notices(stream, 8, 64);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ((*back)[b].modifier, blocks[b].modifier);
    EXPECT_EQ((*back)[b].pages, blocks[b].pages);
  }
  EXPECT_EQ(notice::notice_page_count(*back), 11u);
  // Empty block lists encode to an empty stream and round-trip.
  EXPECT_TRUE(notice::pack_notices({}).empty());
  EXPECT_TRUE(notice::try_unpack_notices({}, 8, 64)->empty());
}

TEST(NoticeFuzz, TruncationsSoftFail) {
  // Two blocks of 6 words each: {1, 2, 0, 2, 3, 1} and {3, 2, 2, 1, 57, 4}.
  const auto stream =
      notice::pack_notices({{1, {0, 1, 5}}, {3, {2, 60, 61, 62, 63}}});
  ASSERT_EQ(stream.size(), 12u);
  // A cut at a block boundary is a smaller legal stream (framing truncation
  // is the codec layer's job); every cut inside a block must soft-fail.
  for (std::size_t len = 1; len < stream.size(); ++len) {
    const std::vector<std::uint32_t> cut(stream.begin(),
                                         stream.begin() + static_cast<long>(len));
    EXPECT_EQ(notice::try_unpack_notices(cut, 8, 64).has_value(), len == 6)
        << "at word " << len;
  }
  EXPECT_TRUE(notice::try_unpack_notices(stream, 8, 64).has_value());
}

TEST(NoticeFuzz, HostileCountsRejectedBeforeSizingAnything) {
  // run_count far beyond the words actually present.
  EXPECT_FALSE(
      notice::try_unpack_notices({0, 0xFFFFFFFFu, 0, 1}, 8, 64).has_value());
  // A run length that would expand to ~4G pages must fail on the num_pages
  // bound, not allocate.
  EXPECT_FALSE(
      notice::try_unpack_notices({0, 1, 0, 0xFFFFFFFFu}, 8, 64).has_value());
  // gap + len summing past num_pages in 64-bit math (no uint32 wraparound).
  EXPECT_FALSE(
      notice::try_unpack_notices({0, 1, 0xFFFFFFFFu, 2}, 8, 64).has_value());
}

TEST(NoticeFuzz, NonCanonicalStreamsRejected) {
  const PageId pages = 64;
  // Modifier out of range.
  EXPECT_FALSE(notice::try_unpack_notices({8, 1, 0, 1}, 8, pages).has_value());
  // Modifiers not strictly ascending (equal, then descending).
  EXPECT_FALSE(notice::try_unpack_notices({2, 1, 0, 1, 2, 1, 0, 1}, 8, pages)
                   .has_value());
  EXPECT_FALSE(notice::try_unpack_notices({2, 1, 0, 1, 1, 1, 0, 1}, 8, pages)
                   .has_value());
  // Zero-length run and empty block.
  EXPECT_FALSE(notice::try_unpack_notices({0, 1, 0, 0}, 8, pages).has_value());
  EXPECT_FALSE(notice::try_unpack_notices({0, 0}, 8, pages).has_value());
  // Second run with gap 0 (adjacent runs must have been merged).
  EXPECT_FALSE(
      notice::try_unpack_notices({0, 2, 0, 1, 0, 1}, 8, pages).has_value());
  // Page past the pool.
  EXPECT_FALSE(notice::try_unpack_notices({0, 1, 64, 1}, 8, pages).has_value());
}

TEST(NoticeFuzz, WordFlipsAndGarbageNeverCrash) {
  std::mt19937_64 rng(20260809);
  const auto pristine =
      notice::pack_notices({{0, {3, 4, 5}}, {4, {0, 63}}, {6, {31}}});
  // Single-word mutations: each either still validates (a different legal
  // stream) or soft-fails; unpacked results always respect the bounds.
  for (std::size_t w = 0; w < pristine.size(); ++w) {
    for (std::uint32_t delta : {1u, 0x80u, 0xFFFFFFFFu}) {
      auto mutated = pristine;
      mutated[w] ^= delta;
      const auto result = notice::try_unpack_notices(mutated, 8, 64);
      if (!result.has_value()) continue;
      for (const auto& block : *result) {
        EXPECT_LT(block.modifier, 8);
        for (PageId p : block.pages) EXPECT_LT(p, 64);
      }
    }
  }
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint32_t> garbage(rng() % 24);
    for (auto& word : garbage) {
      word = static_cast<std::uint32_t>(rng() % 128);
    }
    (void)notice::try_unpack_notices(garbage, 8, 64);
  }
}

TEST(CodecFuzz, WireBufferStringValidatesBeforeAllocating) {
  WireBuffer raw;
  raw.put<std::uint32_t>(0xFFFFFFF0u);
  raw.put_bytes("abc", 3);
  WireBuffer reader{std::move(raw).take()};
  const std::string text = reader.get_string();
  EXPECT_TRUE(text.empty());
  EXPECT_FALSE(reader.ok());

  // rewind clears the failure latch.
  reader.rewind();
  EXPECT_TRUE(reader.ok());
}

}  // namespace
}  // namespace parade::dsm

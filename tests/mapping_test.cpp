// SegmentPool: the zero-copy segment-mapped DSM memory (paper §5.1 double
// mapping generalized to three views over one pool). Covers creation probes
// per MapMethod, the real_address arithmetic, view aliasing, per-page
// protection, and error paths (no UB on out-of-range inputs).
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstring>

#include "dsm/mapping.hpp"

namespace parade::dsm {
namespace {

constexpr std::size_t kPool = 1 << 16;
constexpr std::size_t kPage = 4096;

class SegmentPoolMethod : public ::testing::TestWithParam<MapMethod> {};

TEST_P(SegmentPoolMethod, SystemViewWritesVisibleInAppView) {
  auto pool_result = SegmentPool::create(kPool, kPage, GetParam());
  ASSERT_TRUE(pool_result.is_ok()) << pool_result.status().to_string();
  auto& pool = *pool_result.value();

  // Write through the always-writable system view while the app view is
  // PROT_NONE — the core of the atomic page update solution.
  std::memset(pool.sys_view(), 0xCD, kPage);
  ASSERT_TRUE(pool.protect_app(0, kPage, PROT_READ).is_ok());
  EXPECT_EQ(std::to_integer<int>(pool.app_view()[0]), 0xCD);
  EXPECT_EQ(std::to_integer<int>(pool.app_view()[kPage - 1]), 0xCD);
}

TEST_P(SegmentPoolMethod, AppViewWritesVisibleInSystemView) {
  auto pool_result = SegmentPool::create(kPool, kPage, GetParam());
  ASSERT_TRUE(pool_result.is_ok());
  auto& pool = *pool_result.value();
  ASSERT_TRUE(pool.protect_app(0, kPage, PROT_READ | PROT_WRITE).is_ok());
  pool.app_view()[17] = std::byte{0x7E};
  EXPECT_EQ(std::to_integer<int>(pool.sys_view()[17]), 0x7E);
}

TEST_P(SegmentPoolMethod, TwinFramesAreDistinctStorage) {
  auto pool_result = SegmentPool::create(kPool, kPage, GetParam());
  ASSERT_TRUE(pool_result.is_ok());
  auto& pool = *pool_result.value();
  // The twin view maps its own frames: writing a twin must not leak into the
  // page frame it snapshots (and vice versa).
  std::memset(pool.real_address(View::kSys, 1, 0), 0xAA, kPage);
  std::memset(pool.real_address(View::kTwin, 1, 0), 0x55, kPage);
  EXPECT_EQ(std::to_integer<int>(*pool.real_address(View::kSys, 1, 0)), 0xAA);
  EXPECT_EQ(std::to_integer<int>(*pool.real_address(View::kTwin, 1, 0)), 0x55);
}

TEST_P(SegmentPoolMethod, PerPageProtection) {
  auto pool_result = SegmentPool::create(kPool, kPage, GetParam());
  ASSERT_TRUE(pool_result.is_ok());
  auto& pool = *pool_result.value();
  // Different pages may hold different protections independently.
  EXPECT_TRUE(pool.protect_app(0, kPage, PROT_READ).is_ok());
  EXPECT_TRUE(pool.protect_app(kPage, kPage, PROT_READ | PROT_WRITE).is_ok());
  EXPECT_TRUE(pool.protect_app(2 * kPage, kPage, PROT_NONE).is_ok());
}

TEST_P(SegmentPoolMethod, OutOfRangeProtectRejected) {
  auto pool_result = SegmentPool::create(kPool, kPage, GetParam());
  ASSERT_TRUE(pool_result.is_ok());
  auto& pool = *pool_result.value();
  // Errors, not UB: offset past the pool, and length overflowing the pool
  // (including the offset+length wraparound case).
  EXPECT_EQ(pool.protect_app(kPool, kPage, PROT_READ).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(pool.protect_app(kPage, kPool, PROT_READ).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(pool
                .protect_app(kPool - kPage, ~static_cast<std::size_t>(0),
                             PROT_READ)
                .code(),
            ErrorCode::kOutOfRange);
}

TEST_P(SegmentPoolMethod, RealAddressArithmeticRoundTrips) {
  auto pool_result = SegmentPool::create(kPool, kPage, GetParam());
  ASSERT_TRUE(pool_result.is_ok());
  auto& pool = *pool_result.value();
  EXPECT_EQ(pool.num_pages(), kPool / kPage);
  for (const View view : {View::kApp, View::kSys, View::kTwin}) {
    for (PageId page : {0, 1, static_cast<PageId>(pool.num_pages() - 1)}) {
      for (std::size_t offset : {std::size_t{0}, std::size_t{8}, kPage - 1}) {
        std::byte* addr = pool.real_address(view, page, offset);
        EXPECT_EQ(addr, pool.view_base(view) +
                            static_cast<std::size_t>(page) * kPage + offset);
        auto located = pool.locate(addr);
        ASSERT_TRUE(located.has_value());
        EXPECT_EQ(located->view, view);
        EXPECT_EQ(located->page, page);
        EXPECT_EQ(located->offset, offset);
      }
    }
  }
}

TEST_P(SegmentPoolMethod, CheckedAddressRejectsOutOfRange) {
  auto pool_result = SegmentPool::create(kPool, kPage, GetParam());
  ASSERT_TRUE(pool_result.is_ok());
  auto& pool = *pool_result.value();
  EXPECT_TRUE(pool.checked_address(View::kSys, 0, 0).is_ok());
  EXPECT_EQ(pool.checked_address(View::kSys, -1, 0).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(pool
                .checked_address(View::kSys,
                                 static_cast<PageId>(pool.num_pages()), 0)
                .status()
                .code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(pool.checked_address(View::kSys, 0, kPage).status().code(),
            ErrorCode::kOutOfRange);
}

TEST_P(SegmentPoolMethod, LocateRejectsForeignPointers) {
  auto pool_result = SegmentPool::create(kPool, kPage, GetParam());
  ASSERT_TRUE(pool_result.is_ok());
  auto& pool = *pool_result.value();
  int stack_object = 0;
  EXPECT_FALSE(
      pool.locate(reinterpret_cast<const std::byte*>(&stack_object))
          .has_value());
  EXPECT_FALSE(pool.locate(nullptr).has_value());
  // One past the last view is outside the segment.
  EXPECT_FALSE(pool.locate(pool.view_base(View::kTwin) + kPool).has_value());
}

INSTANTIATE_TEST_SUITE_P(Methods, SegmentPoolMethod,
                         ::testing::Values(MapMethod::kMemfd, MapMethod::kSysV),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SegmentPool, UnimplementedMethodsReportUniformly) {
  // mdup() needs the authors' kernel patch; child-process needs cross-process
  // page-table tricks — both are documented substitutions and must fail the
  // same way so probing code can fall through a method list.
  for (const MapMethod method : {MapMethod::kMdup, MapMethod::kChildProcess}) {
    auto result = SegmentPool::create(kPool, kPage, method);
    ASSERT_FALSE(result.is_ok()) << to_string(method);
    EXPECT_EQ(result.status().code(), ErrorCode::kUnsupported)
        << to_string(method);
  }
}

TEST(SegmentPool, RejectsUnalignedSizes) {
  EXPECT_EQ(SegmentPool::create(12345, kPage, MapMethod::kMemfd)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(SegmentPool::create(kPool, 12345, MapMethod::kMemfd)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(SegmentPool::create(0, kPage, MapMethod::kMemfd).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(SegmentPool, RejectsPagesBeyondDiffReach) {
  // A diff run names its words with u16 indices, which reach 256 KiB.
  constexpr std::size_t kMaxPage = 256 * 1024;
  EXPECT_TRUE(
      SegmentPool::create(kMaxPage, kMaxPage, MapMethod::kMemfd).is_ok());
  EXPECT_EQ(SegmentPool::create(2 * kMaxPage, 2 * kMaxPage, MapMethod::kMemfd)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(MapMethod, ParseRoundTrips) {
  for (const MapMethod method :
       {MapMethod::kMemfd, MapMethod::kSysV, MapMethod::kMdup,
        MapMethod::kChildProcess}) {
    const auto parsed = parse_map_method(to_string(method));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, method);
  }
  EXPECT_FALSE(parse_map_method("posix-shm").has_value());
}

}  // namespace
}  // namespace parade::dsm

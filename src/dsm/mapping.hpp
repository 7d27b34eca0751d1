// SegmentPool: one contiguous memfd/SysV-backed region holding every view of
// the node's shared pool, with view bases computed by arithmetic in the stmgc
// segment style (REAL_ADDRESS(segment_base, obj) = base + offset).
//
// Layout: a single 3*pool_bytes virtual reservation split into equal views,
//
//   [kApp  | view 0]  protection-managed application view (initially NONE)
//   [kSys  | view 1]  always-writable system view of the *same* frames
//   [kTwin | view 2]  twin frames: per-page pristine copies used for diffing
//
// kApp and kSys map the same physical frames — the paper's §5.1 solution to
// the atomic page update problem. A multi-threaded SDSM cannot simply flip a
// page writable and copy the new contents in: another application thread
// could slip through the window and read a half-updated page without
// faulting. The runtime updates pages through the system view and only then
// grants access in the protection-managed application view. kTwin maps a
// second set of frames from the same backing object, so a page's twin is
// found by the same `real_address` arithmetic instead of a per-page heap
// vector.
//
// Methods (paper §5.1): file/memfd mapping and System V shared memory are
// fully implemented; mdup() (their custom syscall) and the child-process
// page-table trick are represented by create() returning kUnsupported with an
// explanation, so callers and tests can probe method availability uniformly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/status.hpp"
#include "common/types.hpp"
#include "dsm/config.hpp"

namespace parade::dsm {

/// The three per-node views of the pool, in reservation order.
enum class View : unsigned { kApp = 0, kSys = 1, kTwin = 2 };

inline constexpr std::size_t kNumViews = 3;

class SegmentPool {
 public:
  /// Maps `pool_bytes` of shared frames (plus an equally sized twin area)
  /// with the requested method. `pool_bytes` must be a positive multiple of
  /// `page_bytes`, and `page_bytes` a multiple of the hardware page size.
  static Result<std::unique_ptr<SegmentPool>> create(std::size_t pool_bytes,
                                                     std::size_t page_bytes,
                                                     MapMethod method);
  ~SegmentPool();

  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;

  /// Base of a view: `base_ + view_index * pool_bytes` (stmgc's
  /// get_segment_base). Every address in the pool is view base + arithmetic.
  std::byte* view_base(View view) const {
    return base_ + static_cast<std::size_t>(view) * pool_bytes_;
  }

  /// stmgc-style REAL_ADDRESS: the byte at `offset` into `page` as seen
  /// through `view`. Pure arithmetic; no bounds check (see checked_address).
  std::byte* real_address(View view, PageId page, std::size_t offset) const {
    return view_base(view) + static_cast<std::size_t>(page) * page_bytes_ +
           offset;
  }

  /// Bounds-checked real_address for untrusted page/offset pairs.
  Result<std::byte*> checked_address(View view, PageId page,
                                     std::size_t offset) const;

  /// Inverse of real_address: decomposes a pointer inside the reservation
  /// back into (view, page, offset). nullopt when `p` is outside the pool.
  struct Located {
    View view;
    PageId page;
    std::size_t offset;
  };
  std::optional<Located> locate(const std::byte* p) const;

  /// Protection-managed application view (initially PROT_NONE).
  std::byte* app_view() const { return view_base(View::kApp); }
  /// Always-writable system view of the same physical memory.
  std::byte* sys_view() const { return view_base(View::kSys); }

  std::size_t pool_bytes() const { return pool_bytes_; }
  std::size_t page_bytes() const { return page_bytes_; }
  std::size_t num_pages() const { return pool_bytes_ / page_bytes_; }
  MapMethod method() const { return method_; }

  /// mprotect() on [offset, offset+length) of the application view.
  /// `prot` is a PROT_* combination. Out-of-range requests return an error
  /// Status instead of touching neighbouring views.
  Status protect_app(std::size_t offset, std::size_t length, int prot);

 private:
  SegmentPool(std::byte* base, std::size_t pool_bytes, std::size_t page_bytes,
              MapMethod method, int fd)
      : base_(base), pool_bytes_(pool_bytes), page_bytes_(page_bytes),
        method_(method), fd_(fd) {}

  std::byte* base_;         // start of the 3*pool_bytes reservation
  std::size_t pool_bytes_;  // bytes per view
  std::size_t page_bytes_;
  MapMethod method_;
  int fd_;  // memfd (kMemfd) or -1
};

const char* to_string(MapMethod method);

/// Parses a PARADE_MAP_METHOD value ("memfd", "sysv", "mdup",
/// "child-process"); nullopt for anything else.
std::optional<MapMethod> parse_map_method(const std::string& name);

}  // namespace parade::dsm

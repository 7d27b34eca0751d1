// Per-node page table implementing the paper's Figure 5 state machine:
//
//   INVALID ──fault──▶ TRANSIENT ──another fault──▶ BLOCKED
//      ▲                   │                           │
//      │              update done                 update done
//  invalidate              ▼                           ▼
//      └──────────── READ_ONLY ◀───────(wake waiters)──┘
//                        │  ▲
//                  write fault  flush (diff sent / WN recorded)
//                        ▼  │
//                       DIRTY
//
// TRANSIENT marks "a thread is fetching this page"; BLOCKED additionally
// marks "other threads are waiting for the fetch". Waiting threads park on
// the per-page condition variable; the communication thread installs the
// fetched page through the system view, flips protection, and wakes them.
//
// A non-home writer's twin is the page's frame in its own SegmentPool twin
// view (View::kTwin); `PageEntry::twin` records that the frame holds one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "dsm/rules.hpp"

namespace parade::dsm {

// PageState and the legal-edge table live in dsm/rules.hpp alongside the
// rest of the pure protocol rules; this alias keeps existing callers of the
// unqualified name working.
using rules::transition_allowed;

struct PageEntry {
  std::mutex mutex;
  std::condition_variable cv;
  PageState state = PageState::kInvalid;
  NodeId home = 0;
  /// Set while this node's twin frame holds the page's pre-write copy
  /// (guarded by `mutex`): from a non-home write fault until the flush diffs
  /// against it or a departure invalidates the page.
  bool twin = false;
  /// Virtual timestamp at which the latest fetched copy became usable;
  /// merged into the clock of every thread that waited for the fetch.
  VirtualUs ready_vtime = 0.0;
  /// Sequence number of the outstanding fetch (guarded by `mutex`). Replies
  /// carrying any other value are stale retransmission artifacts and are
  /// dropped instead of installed.
  std::uint32_t fetch_seq = 0;
  /// Home-side sharing state (guarded by `mutex`, meaningful only while this
  /// node is the page's home; see rules::home_flush). `remote_copy`: some
  /// peer may hold a copy. `exclusive`: the page is DIRTY and stays writable
  /// across barriers because no peer holds a copy; the next serve ends it.
  bool remote_copy = false;
  bool exclusive = false;
  /// Set while a flush has write-protected this DIRTY page but not yet
  /// scanned it (guarded by `mutex`): a writer that faults meanwhile waits
  /// on `cv`, then faults into a fresh twin.
  bool flushing = false;
};

class PageTable {
 public:
  PageTable(std::size_t num_pages, NodeId initial_home);

  PageEntry& entry(PageId page);
  const PageEntry& entry(PageId page) const;
  std::size_t num_pages() const { return entries_.size(); }

  /// Home lookup without holding the page lock (homes only change inside the
  /// barrier, when no application thread is faulting).
  NodeId home_of(PageId page) const;

 private:
  // deque-like stable storage: entries hold mutexes, so no reallocation.
  std::vector<std::unique_ptr<PageEntry>> entries_;
};

}  // namespace parade::dsm

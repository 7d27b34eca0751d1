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
// Twins no longer live in per-page heap vectors: TwinRegistry (below) tracks
// per-page privatization state over the SegmentPool twin view, and lets a
// write-faulting node alias the home's frame instead of copying it (CoW).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "dsm/mapping.hpp"
#include "dsm/rules.hpp"

namespace parade::dsm {

// PageState and the legal-edge table live in dsm/rules.hpp alongside the
// rest of the pure protocol rules; this alias keeps existing callers of the
// unqualified name working.
using rules::transition_allowed;

class TwinRegistry;

/// Sentinel fetched_version: "this copy has no known frame version". It never
/// matches a live frame version, so write faults on such copies privatize
/// their twin eagerly. Also TwinRegistry::kNeverFetched.
inline constexpr std::uint32_t kNeverFetchedVersion = 0xFFFFFFFFU;

struct PageEntry {
  std::mutex mutex;
  std::condition_variable cv;
  PageState state = PageState::kInvalid;
  NodeId home = 0;
  /// Frame version the latest installed copy was served at (guarded by
  /// `mutex`). A later write fault may alias the home's frame as its twin
  /// only while the home's frame still carries this version. Copies not
  /// obtained through a versioned serve (seeded homes, copies kept across a
  /// home migration) use kNeverFetched and privatize eagerly.
  std::uint32_t fetched_version = kNeverFetchedVersion;
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

  /// Drops this node's twin for `page`, shared or private — the single
  /// release path used by both flush and the departure downgrade.
  void release_twin(TwinRegistry& twins, NodeId self, PageId page);
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

/// Cross-node ledger of twin state over the SegmentPool twin view — the
/// stmgc privatization-lock idiom adapted to HLRC twins.
///
/// A non-home write fault needs a pristine pre-write copy of the page to
/// diff against at flush. The eager scheme memcpys the page into a twin
/// frame on every fault. The CoW scheme instead *aliases* the home's frame
/// (a pointer, no copy) while the home's copy provably still matches the
/// faulting node's copy — i.e. the fetch version still matches and the home
/// is not mid-write — and privatizes (the one-page copy through the sys
/// view) only when the home's frame is about to diverge.
///
/// Frame versions: every home-side frame mutation (diff application, the
/// home's own write upgrade, the dirty→read-only downgrade at flush) bumps
/// the page's version after privatizing live aliases. Serves report the
/// version; installs record it; attach compares. The `unstable` flag covers
/// the home's own DIRTY window, during which writes land without bumps.
///
/// Locking: per-page striped mutexes. Callers hold their own PageEntry
/// mutex first; stripe locks nest strictly inside and never cross to
/// another node's entries, so the registry adds no lock-order cycles. Diff
/// encoding reads the pristine copy inside `with_twin`'s critical section,
/// so a concurrent privatization can never swap the source mid-read.
///
/// In-process clusters share one registry across ranks; a standalone node
/// (socket fabric) gets a solo registry where no peer pool is registered,
/// making every attach privatize eagerly.
class TwinRegistry {
 public:
  /// Sentinel fetched_version: "this copy has no known frame version".
  static constexpr std::uint32_t kNeverFetched = kNeverFetchedVersion;

  TwinRegistry(std::size_t num_pages, std::size_t page_bytes, int max_nodes);

  /// Makes `rank`'s SegmentPool visible to attach/privatize. Must be called
  /// before the node serves or faults; unregister before the pool unmaps.
  void register_pool(NodeId rank, SegmentPool* pool);
  /// Withdraws `rank`'s pool: drops its own twins and privatizes any alias
  /// another rank still holds into this pool's frames.
  void unregister_pool(NodeId rank);

  /// Records a twin for (`self`, `page`). Aliases `home`'s frame when that
  /// is provably safe; otherwise copies self's current frame into self's
  /// twin frame. Returns true when the twin is a shared alias (no copy
  /// happened).
  bool attach_twin(NodeId self, PageId page, NodeId home,
                   std::uint32_t fetched_version);

  /// Drops (`self`, `page`)'s twin if present.
  void release_twin(NodeId self, PageId page);

  bool has_twin(NodeId self, PageId page);

  /// Runs `fn(pristine)` under the page's stripe lock, where `pristine` is
  /// the twin's current source (home frame alias or private copy). Returns
  /// false (fn not called) when no twin is attached.
  template <typename Fn>
  bool with_twin(NodeId self, PageId page, Fn&& fn) {
    std::lock_guard<std::mutex> lock(stripe(page));
    const TwinSlot* slot = find_slot(page, self);
    if (slot == nullptr) return false;
    fn(static_cast<const std::byte*>(slot->src));
    return true;
  }

  /// Home-side hook before the home's frame content changes (diff
  /// application): privatizes every live alias of the frame and bumps the
  /// version. Returns the number of aliases privatized.
  int begin_home_mutation(PageId page);

  /// Home-side hook at the home's own write upgrade: privatizes aliases,
  /// bumps, and marks the frame unstable (the DIRTY window — subsequent
  /// stores land without further bumps). Returns aliases privatized.
  int mark_unstable(NodeId rank, PageId page);

  /// Home-side hook at the home's dirty→read-only downgrade: clears the
  /// unstable mark (if owned by `rank`) and bumps the version.
  void mark_stable(NodeId rank, PageId page);

  /// Version to stamp on an outgoing page serve.
  std::uint32_t frame_version(PageId page);

  std::size_t page_bytes() const { return page_bytes_; }

 private:
  struct TwinSlot {
    NodeId node = -1;         // watcher rank owning this twin
    NodeId frame_owner = -1;  // rank whose pool `src` points into
    const std::byte* src = nullptr;
    bool is_private = false;
  };
  struct PageShare {
    std::uint32_t version = 0;
    bool unstable = false;
    NodeId unstable_by = -1;
    std::vector<TwinSlot> slots;  // tiny: one entry per concurrent writer
  };

  static constexpr std::size_t kStripes = 64;

  std::mutex& stripe(PageId page) {
    return stripes_[static_cast<std::size_t>(page) % kStripes];
  }
  TwinSlot* find_slot(PageId page, NodeId node);
  /// Copies every shared alias of `page` into its owner's twin frame.
  /// Caller holds the stripe lock.
  int privatize_locked(PageId page, PageShare& share);

  std::vector<PageShare> pages_;
  std::array<std::mutex, kStripes> stripes_;
  // Indexed by rank. Atomic so registration (node start/stop) can overlap
  // another rank's comm traffic without a lock covering every stripe.
  std::vector<std::atomic<SegmentPool*>> pools_;
  std::size_t page_bytes_;
};

}  // namespace parade::dsm

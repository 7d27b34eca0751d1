#include "dsm/pagetable.hpp"

#include <cstring>

namespace parade::dsm {

const char* to_string(PageState state) {
  switch (state) {
    case PageState::kInvalid: return "INVALID";
    case PageState::kTransient: return "TRANSIENT";
    case PageState::kBlocked: return "BLOCKED";
    case PageState::kReadOnly: return "READ_ONLY";
    case PageState::kDirty: return "DIRTY";
  }
  return "?";
}

void PageEntry::release_twin(TwinRegistry& twins, NodeId self, PageId page) {
  twins.release_twin(self, page);
}

PageTable::PageTable(std::size_t num_pages, NodeId initial_home) {
  entries_.reserve(num_pages);
  for (std::size_t i = 0; i < num_pages; ++i) {
    auto entry = std::make_unique<PageEntry>();
    entry->home = initial_home;
    entries_.push_back(std::move(entry));
  }
}

PageEntry& PageTable::entry(PageId page) {
  PARADE_CHECK(page >= 0 && static_cast<std::size_t>(page) < entries_.size());
  return *entries_[static_cast<std::size_t>(page)];
}

const PageEntry& PageTable::entry(PageId page) const {
  PARADE_CHECK(page >= 0 && static_cast<std::size_t>(page) < entries_.size());
  return *entries_[static_cast<std::size_t>(page)];
}

NodeId PageTable::home_of(PageId page) const {
  const PageEntry& e = entry(page);
  return e.home;
}

TwinRegistry::TwinRegistry(std::size_t num_pages, std::size_t page_bytes,
                           int max_nodes)
    : pages_(num_pages),
      pools_(static_cast<std::size_t>(max_nodes > 0 ? max_nodes : 1)),
      page_bytes_(page_bytes) {
  for (auto& pool : pools_) pool.store(nullptr, std::memory_order_relaxed);
}

void TwinRegistry::register_pool(NodeId rank, SegmentPool* pool) {
  PARADE_CHECK(rank >= 0 && static_cast<std::size_t>(rank) < pools_.size());
  pools_[static_cast<std::size_t>(rank)].store(pool,
                                               std::memory_order_release);
}

void TwinRegistry::unregister_pool(NodeId rank) {
  PARADE_CHECK(rank >= 0 && static_cast<std::size_t>(rank) < pools_.size());
  for (PageId page = 0; static_cast<std::size_t>(page) < pages_.size();
       ++page) {
    std::lock_guard<std::mutex> lock(stripe(page));
    PageShare& share = pages_[static_cast<std::size_t>(page)];
    auto& slots = share.slots;
    for (std::size_t i = slots.size(); i-- > 0;) {
      if (slots[i].node == rank) {
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      if (!slots[i].is_private && slots[i].frame_owner == rank) {
        // A surviving rank still aliases this pool's frames; give it a
        // private copy before the frames unmap.
        SegmentPool* watcher_pool =
            pools_[static_cast<std::size_t>(slots[i].node)].load(
                std::memory_order_acquire);
        PARADE_CHECK(watcher_pool != nullptr);
        std::byte* twin = watcher_pool->real_address(View::kTwin, page, 0);
        std::memcpy(twin, slots[i].src, page_bytes_);
        slots[i].src = twin;
        slots[i].frame_owner = slots[i].node;
        slots[i].is_private = true;
      }
    }
  }
  pools_[static_cast<std::size_t>(rank)].store(nullptr,
                                               std::memory_order_release);
}

TwinRegistry::TwinSlot* TwinRegistry::find_slot(PageId page, NodeId node) {
  PageShare& share = pages_[static_cast<std::size_t>(page)];
  for (TwinSlot& slot : share.slots) {
    if (slot.node == node) return &slot;
  }
  return nullptr;
}

int TwinRegistry::privatize_locked(PageId page, PageShare& share) {
  int privatized = 0;
  for (TwinSlot& slot : share.slots) {
    if (slot.is_private) continue;
    SegmentPool* watcher_pool =
        pools_[static_cast<std::size_t>(slot.node)].load(
            std::memory_order_acquire);
    PARADE_CHECK(watcher_pool != nullptr);
    // The frame is still pristine for this watcher — privatization happens
    // strictly before the mutation that would diverge it.
    std::byte* twin = watcher_pool->real_address(View::kTwin, page, 0);
    std::memcpy(twin, slot.src, page_bytes_);
    slot.src = twin;
    slot.frame_owner = slot.node;
    slot.is_private = true;
    ++privatized;
  }
  return privatized;
}

bool TwinRegistry::attach_twin(NodeId self, PageId page, NodeId home,
                               std::uint32_t fetched_version) {
  PARADE_CHECK(static_cast<std::size_t>(page) < pages_.size());
  std::lock_guard<std::mutex> lock(stripe(page));
  PageShare& share = pages_[static_cast<std::size_t>(page)];
  SegmentPool* self_pool =
      pools_[static_cast<std::size_t>(self)].load(std::memory_order_acquire);
  PARADE_CHECK(self_pool != nullptr);
  SegmentPool* home_pool =
      (home >= 0 && static_cast<std::size_t>(home) < pools_.size())
          ? pools_[static_cast<std::size_t>(home)].load(
                std::memory_order_acquire)
          : nullptr;
  const bool share_alias = home != self && home_pool != nullptr &&
                           !share.unstable &&
                           fetched_version != kNeverFetched &&
                           fetched_version == share.version;
  TwinSlot* slot = find_slot(page, self);
  if (slot == nullptr) {
    share.slots.push_back(TwinSlot{});
    slot = &share.slots.back();
    slot->node = self;
  }
  if (share_alias) {
    slot->frame_owner = home;
    slot->src = home_pool->real_address(View::kSys, page, 0);
    slot->is_private = false;
  } else {
    std::byte* twin = self_pool->real_address(View::kTwin, page, 0);
    std::memcpy(twin, self_pool->real_address(View::kSys, page, 0),
                page_bytes_);
    slot->frame_owner = self;
    slot->src = twin;
    slot->is_private = true;
  }
  return share_alias;
}

void TwinRegistry::release_twin(NodeId self, PageId page) {
  std::lock_guard<std::mutex> lock(stripe(page));
  PageShare& share = pages_[static_cast<std::size_t>(page)];
  for (std::size_t i = 0; i < share.slots.size(); ++i) {
    if (share.slots[i].node == self) {
      share.slots.erase(share.slots.begin() +
                        static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

bool TwinRegistry::has_twin(NodeId self, PageId page) {
  std::lock_guard<std::mutex> lock(stripe(page));
  return find_slot(page, self) != nullptr;
}

int TwinRegistry::begin_home_mutation(PageId page) {
  std::lock_guard<std::mutex> lock(stripe(page));
  PageShare& share = pages_[static_cast<std::size_t>(page)];
  const int privatized = privatize_locked(page, share);
  ++share.version;
  return privatized;
}

int TwinRegistry::mark_unstable(NodeId rank, PageId page) {
  std::lock_guard<std::mutex> lock(stripe(page));
  PageShare& share = pages_[static_cast<std::size_t>(page)];
  const int privatized = privatize_locked(page, share);
  ++share.version;
  share.unstable = true;
  share.unstable_by = rank;
  return privatized;
}

void TwinRegistry::mark_stable(NodeId rank, PageId page) {
  std::lock_guard<std::mutex> lock(stripe(page));
  PageShare& share = pages_[static_cast<std::size_t>(page)];
  if (share.unstable && share.unstable_by == rank) {
    share.unstable = false;
    share.unstable_by = -1;
  }
  ++share.version;
}

std::uint32_t TwinRegistry::frame_version(PageId page) {
  std::lock_guard<std::mutex> lock(stripe(page));
  return pages_[static_cast<std::size_t>(page)].version;
}

}  // namespace parade::dsm

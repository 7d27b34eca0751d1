#include "dsm/pagetable.hpp"

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

}  // namespace parade::dsm

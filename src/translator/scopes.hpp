// Block-scoped bindings keyed by symbol id, shared by the analyzer, the
// interference walker and CodeGen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "translator/token.hpp"

namespace parade::translator {

/// Nested scopes of symbol bindings. A binding shadows the symbol's
/// previous one until its scope is popped; declare, lookup and pop are
/// constant time per binding, and a table reused across scopes allocates
/// only while it grows.
template <typename T>
class ScopedTable {
 public:
  /// Empties the table for a unit of `symbols` ids.
  void reset(std::size_t symbols) {
    entries_.clear();
    scope_starts_.clear();
    head_.assign(symbols, kNone);
  }

  void push_scope() { scope_starts_.push_back(entries_.size()); }
  void pop_scope() {
    const std::size_t start = scope_starts_.back();
    scope_starts_.pop_back();
    while (entries_.size() > start) {
      head_[entries_.back().sym] = entries_.back().prev;
      entries_.pop_back();
    }
  }
  /// Open scopes; the outermost is depth 1 and its bindings sit at scope 0.
  std::size_t depth() const { return scope_starts_.size(); }

  /// Binds `sym` in the innermost scope.
  T& declare(Sym sym, T value) {
    entries_.push_back(Entry{sym, head_[sym],
                             static_cast<std::uint32_t>(depth() - 1),
                             std::move(value)});
    head_[sym] = static_cast<std::uint32_t>(entries_.size() - 1);
    return entries_.back().value;
  }

  /// The innermost binding of `sym` (nullptr when unbound), and in `*scope`
  /// the index of the scope that holds it.
  const T* lookup(Sym sym, std::size_t* scope = nullptr) const {
    if (sym >= head_.size() || head_[sym] == kNone) return nullptr;
    const Entry& e = entries_[head_[sym]];
    if (scope != nullptr) *scope = e.scope;
    return &e.value;
  }
  T* lookup(Sym sym, std::size_t* scope = nullptr) {
    return const_cast<T*>(std::as_const(*this).lookup(sym, scope));
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Entry {
    Sym sym;
    std::uint32_t prev;   // the binding this one shadows
    std::uint32_t scope;  // index of the scope holding it
    T value;
  };
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> head_;  // per symbol: its innermost binding
  std::vector<std::size_t> scope_starts_;
};

}  // namespace parade::translator

// A node's incoming-message queue with predicate matching.
//
// Multiple consumer threads may block in a receive concurrently with
// different predicates (e.g. the DSM communication thread matching protocol
// tags while application threads match collective tags). A blocking receive
// that finds no queued match registers itself as a waiter. deliver() hands
// each message straight to the oldest waiter whose matcher accepts it and
// wakes that one thread; a message no waiter accepts is queued. A delivery
// therefore wakes at most one receiver, and a woken receiver never rescans.
// Arrival order is preserved between messages matched by the same
// predicate, which is all the MP layer requires for (src, tag) ordering.
//
// Matcher contract: a matcher runs on the delivering thread while the
// mailbox lock is held, so it must be a pure, non-blocking function of the
// header. It may read state the receiver fixed before the call, but must not
// lock, block, or touch the mailbox.
//
// Fault awareness: transports that learn a peer is gone (e.g. a SocketFabric
// reader hitting EOF) call mark_peer_down(); receivers waiting specifically
// on that peer wake immediately and observe kUnavailable instead of blocking
// forever. close() and mark_peer_down() are the only calls that wake every
// waiter. Timed receives (recv_match_for) underpin the DSM/MP retry loops; a
// handoff that races the timeout is returned, never dropped.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "common/status.hpp"
#include "net/message.hpp"

namespace parade::net {

class Mailbox {
 public:
  using Matcher = std::function<bool(const MessageHeader&)>;

  /// Outcome of a receive that can fail: exactly one of `message` or a
  /// non-OK `status` (kUnavailable on close/peer-down, kTimeout on expiry).
  struct RecvOutcome {
    std::optional<Message> message;
    Status status;
  };

  /// Hands the message to a waiting receiver or enqueues it (called by the
  /// fabric / reader threads). Returns false — and drops the message — once
  /// the mailbox is closed.
  bool deliver(Message message);

  /// Blocks until a message whose header satisfies `match` is available and
  /// removes it. Returns std::nullopt only after close().
  std::optional<Message> recv_match(const Matcher& match);

  /// Bounded-wait variant: returns std::nullopt on timeout or after close()
  /// (check closed() to distinguish). Queued matches are drained first, so a
  /// zero timeout degenerates to try_recv_match.
  std::optional<Message> recv_match_for(const Matcher& match,
                                        std::chrono::milliseconds timeout);

  /// Waits for a match from `peer` (kAnyNode = any). Wakes with kUnavailable
  /// when the mailbox closes or `peer` is marked down (queued matches are
  /// still drained first), and with kTimeout when `timeout` expires.
  RecvOutcome recv_match_from(
      NodeId peer, const Matcher& match,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Non-blocking variant.
  std::optional<Message> try_recv_match(const Matcher& match);

  /// Wakes all blocked receivers with std::nullopt; subsequent recv_match
  /// calls drain remaining matches, then return std::nullopt.
  void close();

  /// Records that `peer` is unreachable and wakes blocked receivers so
  /// recv_match_from(peer, ...) calls observe kUnavailable. Idempotent.
  void mark_peer_down(NodeId peer);
  bool peer_down(NodeId peer) const;

  bool closed() const;
  std::size_t pending() const;

 private:
  /// A blocked receiver's registration. Nodes belong to the mailbox and are
  /// recycled through idle_, never freed while it lives, so deliver() may
  /// notify a waiter's cv after dropping the lock.
  struct Waiter {
    const Matcher* match = nullptr;
    std::condition_variable cv;
    std::optional<Message> slot;  // filled by deliver(), at most once
  };

  std::optional<Message> take_locked(const Matcher& match);

  mutable std::mutex mutex_;
  std::deque<Message> queue_;
  std::list<Waiter> waiters_;  // registered receivers, oldest first
  std::list<Waiter> idle_;     // unregistered nodes kept for reuse
  std::unordered_set<NodeId> down_peers_;
  bool closed_ = false;
};

}  // namespace parade::net

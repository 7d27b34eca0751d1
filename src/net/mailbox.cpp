#include "net/mailbox.hpp"

#include <utility>

namespace parade::net {

bool Mailbox::deliver(Message message) {
  std::condition_variable* wake = nullptr;
  {
    std::lock_guard lock(mutex_);
    if (closed_) return false;
    for (Waiter& waiter : waiters_) {
      if (!waiter.slot && (*waiter.match)(message.header)) {
        waiter.slot = std::move(message);
        wake = &waiter.cv;
        break;
      }
    }
    if (wake == nullptr) queue_.push_back(std::move(message));
  }
  // The node outlives this call. If its receiver already left, the notify
  // is at most a spurious wakeup for the node's next owner.
  if (wake != nullptr) wake->notify_one();
  return true;
}

std::optional<Message> Mailbox::take_locked(const Matcher& match) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (match(it->header)) {
      Message found = std::move(*it);
      queue_.erase(it);
      return found;
    }
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::recv_match(const Matcher& match) {
  return recv_match_from(kAnyNode, match).message;
}

std::optional<Message> Mailbox::recv_match_for(
    const Matcher& match, std::chrono::milliseconds timeout) {
  return recv_match_from(kAnyNode, match, timeout).message;
}

Mailbox::RecvOutcome Mailbox::recv_match_from(
    NodeId peer, const Matcher& match,
    std::optional<std::chrono::milliseconds> timeout) {
  const auto deadline = std::chrono::steady_clock::now() +
                        timeout.value_or(std::chrono::milliseconds(0));
  std::unique_lock lock(mutex_);
  // Drain queued matches even after close/down so nothing is lost.
  if (auto found = take_locked(match)) return {std::move(found), Status::ok()};

  // Nothing queued matches, and while registered every matching delivery
  // lands in our slot unless an older waiter takes it, so no queued match
  // can appear behind our back: a woken waiter never rescans.
  if (idle_.empty()) idle_.emplace_back();
  waiters_.splice(waiters_.end(), idle_, idle_.begin());
  const auto self = std::prev(waiters_.end());
  self->match = &match;
  const auto peer_is_down = [&] {
    return peer != kAnyNode && down_peers_.count(peer) > 0;
  };
  bool expired = false;
  while (!self->slot && !closed_ && !peer_is_down() && !expired) {
    if (timeout.has_value()) {
      expired = self->cv.wait_until(lock, deadline) == std::cv_status::timeout;
    } else {
      self->cv.wait(lock);
    }
  }
  std::optional<Message> handed = std::exchange(self->slot, std::nullopt);
  self->match = nullptr;
  idle_.splice(idle_.begin(), waiters_, self);

  // A handoff that raced close, peer-down or the timeout still wins.
  if (handed) return {std::move(handed), Status::ok()};
  if (closed_) {
    return {std::nullopt, make_error(ErrorCode::kUnavailable,
                                     "mailbox closed")};
  }
  if (peer_is_down()) {
    return {std::nullopt,
            make_error(ErrorCode::kUnavailable,
                       "peer " + std::to_string(peer) + " is down")};
  }
  return {std::nullopt, make_error(ErrorCode::kTimeout, "recv timeout")};
}

std::optional<Message> Mailbox::try_recv_match(const Matcher& match) {
  std::lock_guard lock(mutex_);
  return take_locked(match);
}

void Mailbox::close() {
  std::lock_guard lock(mutex_);
  closed_ = true;
  for (Waiter& waiter : waiters_) waiter.cv.notify_one();
}

void Mailbox::mark_peer_down(NodeId peer) {
  std::lock_guard lock(mutex_);
  down_peers_.insert(peer);
  for (Waiter& waiter : waiters_) waiter.cv.notify_one();
}

bool Mailbox::peer_down(NodeId peer) const {
  std::lock_guard lock(mutex_);
  return down_peers_.count(peer) > 0;
}

bool Mailbox::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace parade::net

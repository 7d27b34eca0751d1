#include "mp/comm.hpp"

#include <cstring>

#include "common/log.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace parade::mp {
namespace {

// Reliable-wire frame prefix: the sender's sequence number, little-endian.
constexpr std::size_t kSeqBytes = 4;

std::uint32_t read_seq(const std::vector<std::uint8_t>& payload) {
  return static_cast<std::uint32_t>(payload[0]) |
         static_cast<std::uint32_t>(payload[1]) << 8 |
         static_cast<std::uint32_t>(payload[2]) << 16 |
         static_cast<std::uint32_t>(payload[3]) << 24;
}

void write_seq(std::uint8_t* out, std::uint32_t seq) {
  out[0] = static_cast<std::uint8_t>(seq);
  out[1] = static_cast<std::uint8_t>(seq >> 8);
  out[2] = static_cast<std::uint8_t>(seq >> 16);
  out[3] = static_cast<std::uint8_t>(seq >> 24);
}

void check(const Status& s) { PARADE_CHECK_MSG(s.is_ok(), s.to_string()); }

/// User tag -> wire tag; kAnyTag passes through as the wildcard.
Tag user_wire_tag(Tag tag) {
  if (tag == kAnyTag) return kAnyTag;
  PARADE_CHECK_MSG(tag >= 0 && tag < net::kCollTagBase - net::kMpTagBase,
                   "user tag out of range");
  return net::kMpTagBase + tag;
}

RecvStatus user_status(const net::Message& m) {
  return RecvStatus{m.header.src, m.header.tag - net::kMpTagBase,
                    m.payload.size()};
}

std::string peer_name(NodeId node) {
  return node == kAnyNode ? "any node" : "node " + std::to_string(node);
}

}  // namespace

Comm::Comm(const Topology& topology, net::Channel& channel,
           vtime::NetworkModel model, net::RetryPolicy retry)
    : channel_(channel),
      topo_(topology),
      model_(model),
      retry_(retry),
      lossy_(channel.lossy()) {
  PARADE_CHECK_MSG(topo_.valid(), "invalid topology");
  PARADE_CHECK_MSG(topo_.rank == channel.rank() &&
                       topo_.nodes == channel.size(),
                   "topology disagrees with channel rank/size");
  auto& reg = obs::Registry::instance();
  const NodeId node = topo_.rank;
  metrics_.p2p_sends = &reg.counter(node, "mp.p2p_sends");
  metrics_.p2p_send_bytes = &reg.counter(node, "mp.p2p_send_bytes");
  metrics_.coll_payload_bytes = &reg.counter(node, "mp.coll_payload_bytes");
  metrics_.barriers = &reg.counter(node, "mp.barriers");
  metrics_.bcasts = &reg.counter(node, "mp.bcasts");
  metrics_.reduces = &reg.counter(node, "mp.reduces");
  metrics_.allreduces = &reg.counter(node, "mp.allreduces");
  metrics_.gathers = &reg.counter(node, "mp.gathers");
  metrics_.allgathers = &reg.counter(node, "mp.allgathers");
  metrics_.retries = &reg.counter(node, "mp.retry.count");
  metrics_.recv_wait = &reg.timer(node, "mp.recv_wait");
  metrics_.collective_ns = &reg.hist(node, "mp.collective_ns");
  if (lossy_) progress_ = std::thread([this] { progress_loop(); });
}

Comm::~Comm() {
  if (!progress_.joinable()) return;
  stopping_.store(true);
  // Wake the progress thread with an empty frame it ignores. Self-sends are
  // never perturbed; if the inbox already closed, the thread has exited.
  (void)channel_.send(rank(), net::kAckTagBase, {}, 0.0);
  progress_.join();
}

void Comm::count_collective(obs::Counter* which, std::size_t payload_bytes) {
  which->add();
  metrics_.coll_payload_bytes->add(static_cast<std::int64_t>(payload_bytes));
}

Tag Comm::next_collective_tag() {
  // All nodes execute collectives in the same order (SPMD), so a simple
  // sequence number yields matching tags everywhere.
  const std::uint32_t seq =
      collective_seq_.fetch_add(1, std::memory_order_relaxed);
  return net::kCollTagBase + static_cast<Tag>(seq & 0x0FFFFFFF);
}

bool Comm::Match::operator()(const net::MessageHeader& h) const {
  if (src != kAnyNode && h.src != src) return false;
  if (wire_tag != kAnyTag) return h.tag == wire_tag;
  return h.tag >= net::kMpTagBase && h.tag < net::kCollTagBase;
}

// ---------------------------------------------------------------------------
// The wire pair

Status Comm::send_wire(NodeId dst, Tag wire_tag, const void* data,
                       std::size_t bytes) {
  VirtualUs stamp = 0.0;
  if (auto* clock = vtime::thread_clock()) {
    clock->sync_cpu();
    clock->add(model_.send_overhead_us);
    stamp = clock->now();
  }
  if (wire_tag < net::kCollTagBase) {
    metrics_.p2p_sends->add();
    metrics_.p2p_send_bytes->add(static_cast<std::int64_t>(bytes));
  }
  const std::size_t prefix = lossy_ ? kSeqBytes : 0;
  std::vector<std::uint8_t> payload(prefix + bytes);
  if (bytes > 0) std::memcpy(payload.data() + prefix, data, bytes);
  if (lossy_) return rel_send(dst, wire_tag, std::move(payload), stamp);
  return channel_.send(dst, wire_tag, std::move(payload), stamp);
}

Status Comm::recv_wire(const Match& match, net::Message* out) {
  obs::ScopedTimer wait(metrics_.recv_wait);
  if (lossy_) {
    if (Status s = rel_recv(match, out); !s.is_ok()) return s;
  } else {
    auto matched = channel_.inbox().recv_match(match);
    if (!matched.has_value()) {
      return make_error(ErrorCode::kUnavailable, "channel closed during recv");
    }
    *out = std::move(*matched);
  }
  charge_recv(*out);
  return Status::ok();
}

std::optional<net::Message> Comm::poll_wire(const Match& match) {
  std::optional<net::Message> matched;
  if (lossy_) {
    std::lock_guard lock(rel_mutex_);
    matched = rel_take_locked(match);
  } else {
    matched = channel_.inbox().try_recv_match(match);
  }
  if (matched.has_value()) charge_recv(*matched);
  return matched;
}

void Comm::charge_recv(const net::Message& m) {
  if (auto* clock = vtime::thread_clock()) {
    clock->sync_cpu();
    clock->merge(m.header.vtime + model_.transfer_us(m.payload.size()));
    clock->add(model_.recv_overhead_us);
  }
}

// ---------------------------------------------------------------------------
// Point-to-point

Status Comm::try_send(NodeId dst, Tag tag, const void* data,
                      std::size_t bytes) {
  PARADE_CHECK_MSG(tag != kAnyTag, "send needs a concrete tag");
  return send_wire(dst, user_wire_tag(tag), data, bytes);
}

void Comm::send(NodeId dst, Tag tag, const void* data, std::size_t bytes) {
  check(try_send(dst, tag, data, bytes));
}

Status Comm::try_recv(NodeId src, Tag tag, void* buffer, std::size_t capacity,
                      RecvStatus* status) {
  net::Message m;
  if (Status s = recv_wire(Match{src, user_wire_tag(tag)}, &m); !s.is_ok()) {
    return s;
  }
  if (m.payload.size() > capacity) {
    return make_error(ErrorCode::kOutOfRange, "recv buffer too small");
  }
  if (!m.payload.empty()) {
    std::memcpy(buffer, m.payload.data(), m.payload.size());
  }
  if (status != nullptr) *status = user_status(m);
  return Status::ok();
}

RecvStatus Comm::recv(NodeId src, Tag tag, void* buffer, std::size_t bytes) {
  RecvStatus status;
  check(try_recv(src, tag, buffer, bytes, &status));
  return status;
}

std::vector<std::uint8_t> Comm::recv_bytes(NodeId src, Tag tag,
                                           RecvStatus* status) {
  net::Message m;
  check(recv_wire(Match{src, user_wire_tag(tag)}, &m));
  if (status != nullptr) *status = user_status(m);
  return std::move(m.payload);
}

std::optional<std::vector<std::uint8_t>> Comm::try_recv_bytes(
    NodeId src, Tag tag, RecvStatus* status) {
  auto matched = poll_wire(Match{src, user_wire_tag(tag)});
  if (!matched.has_value()) return std::nullopt;
  if (status != nullptr) *status = user_status(*matched);
  return std::move(matched->payload);
}

// ---------------------------------------------------------------------------
// Collectives

Status Comm::try_barrier() {
  count_collective(metrics_.barriers, 0);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return Status::ok();
  const Tag tag = next_collective_tag();
  // Dissemination barrier: within one barrier every round talks to a distinct
  // partner, so one tag suffices; the round is identified by the source rank.
  for (int dist = 1; dist < n; dist <<= 1) {
    const NodeId to = (rank() + dist) % n;
    const NodeId from = (rank() - dist % n + n) % n;
    if (Status s = send_wire(to, tag, nullptr, 0); !s.is_ok()) return s;
    net::Message m;
    if (Status s = recv_wire(Match{from, tag}, &m); !s.is_ok()) return s;
  }
  return Status::ok();
}

void Comm::barrier() { check(try_barrier()); }

Status Comm::try_bcast(void* data, std::size_t bytes, NodeId root) {
  count_collective(metrics_.bcasts, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return Status::ok();
  const Tag tag = next_collective_tag();
  const int relative = (rank() - root + n) % n;

  int mask = 1;
  while (mask < n) {
    if ((relative & mask) != 0) {
      const NodeId src = (rank() - mask + n) % n;
      net::Message m;
      if (Status s = recv_wire(Match{src, tag}, &m); !s.is_ok()) return s;
      if (m.payload.size() != bytes) {
        return make_error(ErrorCode::kInternal, "bcast size mismatch");
      }
      if (bytes > 0) std::memcpy(data, m.payload.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      const NodeId dst = (rank() + mask) % n;
      if (Status s = send_wire(dst, tag, data, bytes); !s.is_ok()) return s;
    }
    mask >>= 1;
  }
  return Status::ok();
}

void Comm::bcast(void* data, std::size_t bytes, NodeId root) {
  check(try_bcast(data, bytes, root));
}

Status Comm::reduce_with(
    void* buffer, std::size_t bytes, NodeId root,
    const std::function<void(void*, const void*)>& combine) {
  const int n = size();
  if (n == 1) return Status::ok();
  const Tag tag = next_collective_tag();
  const int relative = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((relative & mask) == 0) {
      const int source_rel = relative | mask;
      if (source_rel < n) {
        const NodeId source = (source_rel + root) % n;
        net::Message m;
        if (Status s = recv_wire(Match{source, tag}, &m); !s.is_ok()) {
          return s;
        }
        if (m.payload.size() != bytes) {
          return make_error(ErrorCode::kInternal, "reduce size mismatch");
        }
        combine(buffer, m.payload.data());
      }
    } else {
      const NodeId dst = ((relative & ~mask) + root) % n;
      return send_wire(dst, tag, buffer, bytes);
    }
    mask <<= 1;
  }
  return Status::ok();
}

Status Comm::try_reduce(void* buffer, std::size_t count, DType dtype, Op op,
                        NodeId root) {
  count_collective(metrics_.reduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  return reduce_with(buffer, count * dtype_size(dtype), root,
                     [&](void* inout, const void* in) {
                       reduce_inplace(dtype, op, inout, in, count);
                     });
}

void Comm::reduce(void* buffer, std::size_t count, DType dtype, Op op,
                  NodeId root) {
  check(try_reduce(buffer, count, dtype, op, root));
}

Status Comm::try_allreduce(void* buffer, std::size_t count, DType dtype,
                           Op op) {
  count_collective(metrics_.allreduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  if (Status s = try_reduce(buffer, count, dtype, op, /*root=*/0);
      !s.is_ok()) {
    return s;
  }
  return try_bcast(buffer, count * dtype_size(dtype), /*root=*/0);
}

void Comm::allreduce(void* buffer, std::size_t count, DType dtype, Op op) {
  check(try_allreduce(buffer, count, dtype, op));
}

Status Comm::try_allreduce_user(void* buffer, std::size_t bytes,
                                const UserReduceFn& fn) {
  count_collective(metrics_.allreduces, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  if (Status s = reduce_with(
          buffer, bytes, /*root=*/0,
          [&](void* inout, const void* in) { fn(inout, in, bytes); });
      !s.is_ok()) {
    return s;
  }
  return try_bcast(buffer, bytes, /*root=*/0);
}

void Comm::allreduce_user(void* buffer, std::size_t bytes,
                          const UserReduceFn& fn) {
  check(try_allreduce_user(buffer, bytes, fn));
}

Status Comm::try_gather(const void* contribution, std::size_t bytes, void* out,
                        NodeId root) {
  count_collective(metrics_.gathers, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const Tag tag = next_collective_tag();
  if (rank() != root) return send_wire(root, tag, contribution, bytes);
  PARADE_CHECK_MSG(out != nullptr, "gather root needs an output buffer");
  auto* base = static_cast<std::uint8_t*>(out);
  std::memcpy(base + static_cast<std::size_t>(rank()) * bytes, contribution,
              bytes);
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == root) continue;
    net::Message m;
    if (Status s = recv_wire(Match{peer, tag}, &m); !s.is_ok()) return s;
    if (m.payload.size() != bytes) {
      return make_error(ErrorCode::kInternal, "gather size mismatch");
    }
    std::memcpy(base + static_cast<std::size_t>(peer) * bytes,
                m.payload.data(), bytes);
  }
  return Status::ok();
}

void Comm::gather(const void* contribution, std::size_t bytes, void* out,
                  NodeId root) {
  check(try_gather(contribution, bytes, out, root));
}

Status Comm::try_allgather(const void* contribution, std::size_t bytes,
                           void* out) {
  count_collective(metrics_.allgathers, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  if (Status s = try_gather(contribution, bytes, out, /*root=*/0);
      !s.is_ok()) {
    return s;
  }
  return try_bcast(out, bytes * static_cast<std::size_t>(size()), /*root=*/0);
}

void Comm::allgather(const void* contribution, std::size_t bytes, void* out) {
  check(try_allgather(contribution, bytes, out));
}

// ---------------------------------------------------------------------------
// Reliable wire (see the header comment)

Status Comm::rel_send(NodeId dst, Tag wire_tag, std::vector<std::uint8_t> frame,
                      VirtualUs stamp) {
  std::unique_lock lock(rel_mutex_);
  const std::uint32_t seq = ++rel_seq_;
  write_seq(frame.data(), seq);
  // Self-sends cannot be lost, so only a remote send waits for its ack.
  const bool wait = dst != rank();
  // Registered before the send: the ack may arrive before send() returns.
  if (wait) rel_unacked_.insert(seq);
  lock.unlock();
  Status s = channel_.send(dst, wire_tag, frame, stamp);
  lock.lock();
  if (s.is_ok() && wait) {
    s = rel_wait(
        lock, [&] { return rel_unacked_.count(seq) == 0; },
        [&] {
          metrics_.retries->add();
          (void)channel_.send(dst, wire_tag, frame, stamp);
        },
        [&] {
          return "message seq " + std::to_string(seq) + " on wire tag " +
                 std::to_string(wire_tag) + " to " + peer_name(dst) +
                 " never acked";
        });
  }
  rel_unacked_.erase(seq);
  return s;
}

Status Comm::rel_recv(const Match& match, net::Message* out) {
  std::unique_lock lock(rel_mutex_);
  std::optional<net::Message> found;
  Status s = rel_wait(
      lock,
      [&] {
        found = rel_take_locked(match);
        return found.has_value();
      },
      [] {},
      [&] {
        return "nothing from " + peer_name(match.src) + " on wire tag " +
               std::to_string(match.wire_tag);
      });
  if (s.is_ok()) *out = std::move(*found);
  return s;
}

Status Comm::rel_wait(std::unique_lock<std::mutex>& lock,
                      const std::function<bool()>& done,
                      const std::function<void()>& on_timeout,
                      const std::function<std::string()>& what) {
  net::RetryBudget budget{retry_, rank(), "mp.partition"};
  for (;;) {
    bool met = false;
    if (rel_cv_.wait_for(lock, retry_.timeout(), [&] {
          met = done();
          return met || rel_closed_;
        })) {
      if (met) return Status::ok();
      return make_error(ErrorCode::kUnavailable,
                        "node " + std::to_string(rank()) + ": " + what() +
                            ": channel closed");
    }
    if (Status s = budget.spend(what); !s.is_ok()) return s;
    lock.unlock();
    on_timeout();
    lock.lock();
  }
}

std::optional<net::Message> Comm::rel_take_locked(const Match& match) {
  for (auto it = rel_stash_.begin(); it != rel_stash_.end(); ++it) {
    if (match(it->header)) {
      net::Message m = std::move(*it);
      rel_stash_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

void Comm::progress_loop() {
  const net::Mailbox::Matcher is_mp_frame = [](const net::MessageHeader& h) {
    return h.tag >= net::kMpTagBase;
  };
  while (!stopping_.load()) {
    auto msg = channel_.inbox().recv_match(is_mp_frame);
    if (!msg.has_value()) break;  // inbox closed
    accept_frame(std::move(*msg));
  }
  {
    std::lock_guard lock(rel_mutex_);
    rel_closed_ = true;
  }
  rel_cv_.notify_all();
}

void Comm::accept_frame(net::Message msg) {
  // Shorter frames are malformed, or the destructor's wake-up.
  if (msg.payload.size() < kSeqBytes) return;
  const std::uint32_t seq = read_seq(msg.payload);
  const bool ack = msg.header.tag == net::kAckTagBase;
  // Re-ack every data frame, duplicates too: the first ack may be lost.
  if (!ack) post_ack(msg.header.src, seq);
  {
    std::lock_guard lock(rel_mutex_);
    ++rel_frames_;
    if (ack) {
      rel_unacked_.erase(seq);
    } else if (!rel_seen_.seen_or_insert(net::seq_key(msg.header.src, seq))) {
      msg.payload.erase(msg.payload.begin(),
                        msg.payload.begin() + kSeqBytes);
      rel_stash_.push_back(std::move(msg));
    }
  }
  rel_cv_.notify_all();
}

void Comm::post_ack(NodeId dst, std::uint32_t seq) {
  std::vector<std::uint8_t> payload(kSeqBytes);
  write_seq(payload.data(), seq);
  (void)channel_.send(dst, net::kAckTagBase, std::move(payload), 0.0);
}

void Comm::quiesce() {
  if (!lossy_) return;
  // A peer stuck in an ack wait retransmits once per timeout, so three silent
  // windows mean nobody is still retrying against this node. The budget
  // bounds the linger, so a chattering link cannot pin us.
  std::unique_lock lock(rel_mutex_);
  int quiet_windows = 0;
  for (int spent = 0;
       quiet_windows < 3 && spent < retry_.max_attempts && !rel_closed_;
       ++spent) {
    const std::uint64_t before = rel_frames_;
    const bool heard = rel_cv_.wait_for(lock, retry_.timeout(), [&] {
      return rel_frames_ != before || rel_closed_;
    });
    quiet_windows = heard ? 0 : quiet_windows + 1;
  }
}

}  // namespace parade::mp

#include "mp/comm.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "common/status.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace parade::mp {
namespace {

vtime::ThreadClock* t_clock_get() { return vtime::thread_clock(); }

}  // namespace

Comm::Comm(const Topology& topology, net::Channel& channel,
           vtime::NetworkModel model, Reliability reliability)
    : channel_(channel),
      topo_(topology),
      model_(model),
      reliability_(reliability) {
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

void Comm::send_wire(NodeId dst, Tag wire_tag, const void* data,
                     std::size_t bytes) {
  VirtualUs stamp = 0.0;
  if (t_clock_get() != nullptr) {
    t_clock_get()->sync_cpu();
    t_clock_get()->add(model_.send_overhead_us);
    stamp = t_clock_get()->now();
  }
  std::vector<std::uint8_t> payload(bytes);
  if (bytes > 0) std::memcpy(payload.data(), data, bytes);
  if (wire_tag < net::kCollTagBase) {
    metrics_.p2p_sends->add();
    metrics_.p2p_send_bytes->add(static_cast<std::int64_t>(bytes));
  }
  Status s = channel_.send(dst, wire_tag, std::move(payload), stamp);
  if (!s.is_ok()) {
    PLOG_WARN("mp send tag " << wire_tag << " to node " << dst
                             << " dropped: " << s.to_string());
  }
}

net::Message Comm::recv_wire(NodeId src, Tag wire_tag) {
  obs::ScopedTimer wait(metrics_.recv_wait);
  auto matched = channel_.inbox().recv_match([&](const net::MessageHeader& h) {
    return h.tag == wire_tag && (src == kAnyNode || h.src == src);
  });
  PARADE_CHECK_MSG(matched.has_value(), "channel closed during recv");
  if (t_clock_get() != nullptr) {
    t_clock_get()->sync_cpu();
    t_clock_get()->merge(matched->header.vtime +
                   model_.transfer_us(matched->payload.size()));
    t_clock_get()->add(model_.recv_overhead_us);
  }
  return std::move(*matched);
}

void Comm::send(NodeId dst, Tag tag, const void* data, std::size_t bytes) {
  PARADE_CHECK_MSG(tag >= 0 && tag < net::kCollTagBase - net::kMpTagBase,
                   "user tag out of range");
  send_wire(dst, net::kMpTagBase + tag, data, bytes);
}

RecvStatus Comm::recv(NodeId src, Tag tag, void* buffer, std::size_t bytes) {
  RecvStatus status;
  auto payload = recv_bytes(src, tag, &status);
  PARADE_CHECK_MSG(payload.size() <= bytes, "recv buffer too small");
  if (!payload.empty()) std::memcpy(buffer, payload.data(), payload.size());
  return status;
}

std::vector<std::uint8_t> Comm::recv_bytes(NodeId src, Tag tag,
                                           RecvStatus* status) {
  obs::ScopedTimer wait(metrics_.recv_wait);
  auto matched = channel_.inbox().recv_match([&](const net::MessageHeader& h) {
    if (h.tag < net::kMpTagBase || h.tag >= net::kCollTagBase) return false;
    if (src != kAnyNode && h.src != src) return false;
    return tag == kAnyTag || h.tag == net::kMpTagBase + tag;
  });
  PARADE_CHECK_MSG(matched.has_value(), "channel closed during recv");
  if (t_clock_get() != nullptr) {
    t_clock_get()->sync_cpu();
    t_clock_get()->merge(matched->header.vtime +
                   model_.transfer_us(matched->payload.size()));
    t_clock_get()->add(model_.recv_overhead_us);
  }
  if (status != nullptr) {
    status->source = matched->header.src;
    status->tag = matched->header.tag - net::kMpTagBase;
    status->bytes = matched->payload.size();
  }
  return std::move(matched->payload);
}

std::optional<std::vector<std::uint8_t>> Comm::try_recv_bytes(
    NodeId src, Tag tag, RecvStatus* status) {
  auto matched =
      channel_.inbox().try_recv_match([&](const net::MessageHeader& h) {
        if (h.tag < net::kMpTagBase || h.tag >= net::kCollTagBase) return false;
        if (src != kAnyNode && h.src != src) return false;
        return tag == kAnyTag || h.tag == net::kMpTagBase + tag;
      });
  if (!matched) return std::nullopt;
  if (t_clock_get() != nullptr) {
    t_clock_get()->sync_cpu();
    t_clock_get()->merge(matched->header.vtime +
                   model_.transfer_us(matched->payload.size()));
    t_clock_get()->add(model_.recv_overhead_us);
  }
  if (status != nullptr) {
    status->source = matched->header.src;
    status->tag = matched->header.tag - net::kMpTagBase;
    status->bytes = matched->payload.size();
  }
  return std::move(matched->payload);
}

void Comm::barrier() {
  count_collective(metrics_.barriers, 0);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return;
  const Tag tag = next_collective_tag();
  // Dissemination barrier: within one barrier every round talks to a distinct
  // partner, so one tag suffices; the round is identified by the source rank.
  for (int dist = 1; dist < n; dist <<= 1) {
    const NodeId to = (rank() + dist) % n;
    const NodeId from = (rank() - dist % n + n) % n;
    send_wire(to, tag, nullptr, 0);
    (void)recv_wire(from, tag);
  }
}

void Comm::bcast(void* data, std::size_t bytes, NodeId root) {
  count_collective(metrics_.bcasts, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return;
  const Tag tag = next_collective_tag();
  const int relative = (rank() - root + n) % n;

  int mask = 1;
  while (mask < n) {
    if ((relative & mask) != 0) {
      const NodeId src = (rank() - mask + n) % n;
      net::Message m = recv_wire(src, tag);
      PARADE_CHECK_MSG(m.payload.size() == bytes, "bcast size mismatch");
      if (bytes > 0) std::memcpy(data, m.payload.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      const NodeId dst = (rank() + mask) % n;
      send_wire(dst, tag, data, bytes);
    }
    mask >>= 1;
  }
}

void Comm::reduce_with(void* buffer, std::size_t bytes, NodeId root, Tag tag,
                       const std::function<void(void*, const void*)>& combine) {
  const int n = size();
  const int relative = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((relative & mask) == 0) {
      const int source_rel = relative | mask;
      if (source_rel < n) {
        const NodeId source = (source_rel + root) % n;
        net::Message m = recv_wire(source, tag);
        PARADE_CHECK_MSG(m.payload.size() == bytes, "reduce size mismatch");
        combine(buffer, m.payload.data());
      }
    } else {
      const NodeId dst = ((relative & ~mask) + root) % n;
      send_wire(dst, tag, buffer, bytes);
      break;
    }
    mask <<= 1;
  }
}

void Comm::reduce(void* buffer, std::size_t count, DType dtype, Op op,
                  NodeId root) {
  count_collective(metrics_.reduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  if (size() == 1) return;
  const Tag tag = next_collective_tag();
  const std::size_t bytes = count * dtype_size(dtype);
  reduce_with(buffer, bytes, root, tag, [&](void* inout, const void* in) {
    reduce_inplace(dtype, op, inout, in, count);
  });
}

void Comm::allreduce(void* buffer, std::size_t count, DType dtype, Op op) {
  count_collective(metrics_.allreduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  reduce(buffer, count, dtype, op, /*root=*/0);
  bcast(buffer, count * dtype_size(dtype), /*root=*/0);
}

void Comm::allreduce_user(void* buffer, std::size_t bytes,
                          const UserReduceFn& fn) {
  if (size() > 1) {
    const Tag tag = next_collective_tag();
    reduce_with(buffer, bytes, /*root=*/0, tag,
                [&](void* inout, const void* in) { fn(inout, in, bytes); });
  }
  bcast(buffer, bytes, /*root=*/0);
}

void Comm::gather(const void* contribution, std::size_t bytes, void* out,
                  NodeId root) {
  count_collective(metrics_.gathers, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const Tag tag = next_collective_tag();
  if (rank() == root) {
    PARADE_CHECK_MSG(out != nullptr, "gather root needs an output buffer");
    auto* base = static_cast<std::uint8_t*>(out);
    std::memcpy(base + static_cast<std::size_t>(rank()) * bytes, contribution,
                bytes);
    for (int peer = 0; peer < size(); ++peer) {
      if (peer == root) continue;
      net::Message m = recv_wire(peer, tag);
      PARADE_CHECK_MSG(m.payload.size() == bytes, "gather size mismatch");
      std::memcpy(base + static_cast<std::size_t>(peer) * bytes,
                  m.payload.data(), bytes);
    }
  } else {
    send_wire(root, tag, contribution, bytes);
  }
}

void Comm::allgather(const void* contribution, std::size_t bytes, void* out) {
  count_collective(metrics_.allgathers, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  gather(contribution, bytes, out, /*root=*/0);
  bcast(out, bytes * static_cast<std::size_t>(size()), /*root=*/0);
}

// ---------------------------------------------------------------------------
// Reliable wire engine (see struct Reliability in comm.hpp)

namespace {

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

}  // namespace

void Comm::post_ack(NodeId dst, std::uint32_t seq) {
  // Acks are reliability artifacts outside the LogGP cost model: they carry
  // the current clock (for monotonicity) but charge no overheads, so a
  // fault-free reliable run keeps the exact timing of the unreliable path.
  std::vector<std::uint8_t> payload(4);
  write_seq(payload.data(), seq);
  const VirtualUs stamp =
      t_clock_get() != nullptr ? t_clock_get()->now() : 0.0;
  (void)channel_.send(dst, net::kAckTagBase, std::move(payload), stamp);
}

Status Comm::rel_pump(bool want_data, NodeId want_src, Tag want_tag,
                      std::uint32_t want_ack_seq, net::Message* out) {
  const net::RetryPolicy& retry = reliability_.retry;
  int attempts = 1;
  for (;;) {
    if (!want_data && rel_unacked_.count(want_ack_seq) == 0) {
      return Status::ok();
    }
    if (want_data) {
      for (auto it = rel_stash_.begin(); it != rel_stash_.end(); ++it) {
        if (it->header.tag == want_tag &&
            (want_src == kAnyNode || it->header.src == want_src)) {
          *out = std::move(*it);
          rel_stash_.erase(it);
          return Status::ok();
        }
      }
    }

    auto msg = channel_.inbox().recv_match_for(
        [](const net::MessageHeader& h) {
          return h.tag == net::kAckTagBase || h.tag >= net::kMpTagBase;
        },
        retry.timeout());
    if (!msg.has_value()) {
      if (channel_.inbox().closed()) {
        return make_error(ErrorCode::kUnavailable, "channel closed");
      }
      if (attempts >= retry.max_attempts) {
        // Unhealed partition: dump the trace ring before reporting, so the
        // message chain leading up to the silence is preserved.
        obs::Registry::instance().flight_record("mp.partition");
        return make_error(ErrorCode::kUnavailable,
                          want_data ? "peer silent past the retry budget"
                                    : "message never acked: peer unreachable");
      }
      ++attempts;
      for (const auto& entry : rel_unacked_) {
        const PendingSend& pending = entry.second;
        metrics_.retries->add();
        (void)channel_.send(pending.dst, pending.wire_tag, pending.payload,
                            pending.stamp);
      }
      continue;
    }

    if (msg->header.tag == net::kAckTagBase) {
      if (msg->payload.size() == 4) rel_unacked_.erase(read_seq(msg->payload));
      continue;
    }

    // Reliable data frame: [seq:4][app payload].
    if (msg->payload.size() < 4) continue;  // malformed; drop
    const std::uint32_t seq = read_seq(msg->payload);
    post_ack(msg->header.src, seq);  // always re-ack, even duplicates
    if (rel_seen_.seen_or_insert(net::seq_key(msg->header.src, seq))) {
      continue;
    }
    if (t_clock_get() != nullptr) {
      t_clock_get()->sync_cpu();
      t_clock_get()->merge(msg->header.vtime +
                           model_.transfer_us(msg->payload.size()));
      t_clock_get()->add(model_.recv_overhead_us);
    }
    msg->payload.erase(msg->payload.begin(), msg->payload.begin() + 4);
    if (want_data && msg->header.tag == want_tag &&
        (want_src == kAnyNode || msg->header.src == want_src)) {
      *out = std::move(*msg);
      return Status::ok();
    }
    rel_stash_.push_back(std::move(*msg));
  }
}

void Comm::quiesce() {
  if (!reliability_.enabled) return;
  const net::RetryPolicy& retry = reliability_.retry;
  // A peer stuck in an ack-wait retransmits once per timeout, so "silent for
  // three timeouts" means nobody is currently retrying against us. Bound the
  // total linger by the retry budget so a chattering link cannot pin us.
  int quiet_windows = 0;
  for (int spent = 0; quiet_windows < 3 && spent < retry.max_attempts;
       ++spent) {
    auto msg = channel_.inbox().recv_match_for(
        [](const net::MessageHeader& h) {
          return h.tag == net::kAckTagBase || h.tag >= net::kMpTagBase;
        },
        retry.timeout());
    if (!msg.has_value()) {
      if (channel_.inbox().closed()) return;
      ++quiet_windows;
      continue;
    }
    quiet_windows = 0;
    if (msg->header.tag == net::kAckTagBase) {
      if (msg->payload.size() == 4) rel_unacked_.erase(read_seq(msg->payload));
      continue;
    }
    if (msg->payload.size() < 4) continue;
    const std::uint32_t seq = read_seq(msg->payload);
    post_ack(msg->header.src, seq);
    // Record unseen frames too: the program is over, so the payload is
    // dead — but the ack we just sent must stay idempotent if it reappears.
    (void)rel_seen_.seen_or_insert(net::seq_key(msg->header.src, seq));
  }
}

Status Comm::rel_send(NodeId dst, Tag wire_tag, const void* data,
                      std::size_t bytes) {
  if (!reliability_.enabled) {
    // Degraded mode: a plain send whose channel error is reported instead of
    // logged-and-dropped.
    VirtualUs stamp = 0.0;
    if (t_clock_get() != nullptr) {
      t_clock_get()->sync_cpu();
      t_clock_get()->add(model_.send_overhead_us);
      stamp = t_clock_get()->now();
    }
    std::vector<std::uint8_t> payload(bytes);
    if (bytes > 0) std::memcpy(payload.data(), data, bytes);
    return channel_.send(dst, wire_tag, std::move(payload), stamp);
  }

  VirtualUs stamp = 0.0;
  if (t_clock_get() != nullptr) {
    t_clock_get()->sync_cpu();
    t_clock_get()->add(model_.send_overhead_us);
    stamp = t_clock_get()->now();
  }
  const std::uint32_t seq = ++rel_seq_;
  std::vector<std::uint8_t> payload(bytes + 4);
  write_seq(payload.data(), seq);
  if (bytes > 0) std::memcpy(payload.data() + 4, data, bytes);
  if (Status s = channel_.send(dst, wire_tag, payload, stamp); !s.is_ok()) {
    return s;
  }
  if (dst == rank()) return Status::ok();  // self-sends cannot be lost
  rel_unacked_.emplace(seq, PendingSend{dst, wire_tag, std::move(payload),
                                        stamp});
  return rel_pump(/*want_data=*/false, kAnyNode, 0, seq, nullptr);
}

Status Comm::rel_recv(NodeId src, Tag wire_tag, net::Message* out) {
  if (!reliability_.enabled) {
    // Degraded mode: bounded wait, no framing.
    const net::RetryPolicy& retry = reliability_.retry;
    const auto total =
        retry.timeout() * std::max(1, retry.max_attempts);
    auto outcome = channel_.inbox().recv_match_from(
        src,
        [&](const net::MessageHeader& h) { return h.tag == wire_tag; },
        total);
    if (!outcome.message.has_value()) return outcome.status;
    if (t_clock_get() != nullptr) {
      t_clock_get()->sync_cpu();
      t_clock_get()->merge(outcome.message->header.vtime +
                           model_.transfer_us(outcome.message->payload.size()));
      t_clock_get()->add(model_.recv_overhead_us);
    }
    *out = std::move(*outcome.message);
    return Status::ok();
  }
  return rel_pump(/*want_data=*/true, src, wire_tag, 0, out);
}

Status Comm::try_send(NodeId dst, Tag tag, const void* data,
                      std::size_t bytes) {
  PARADE_CHECK_MSG(tag >= 0 && tag < net::kCollTagBase - net::kMpTagBase,
                   "user tag out of range");
  metrics_.p2p_sends->add();
  metrics_.p2p_send_bytes->add(static_cast<std::int64_t>(bytes));
  return rel_send(dst, net::kMpTagBase + tag, data, bytes);
}

Status Comm::try_recv(NodeId src, Tag tag, void* buffer, std::size_t capacity,
                      RecvStatus* status) {
  PARADE_CHECK_MSG(tag >= 0 && tag < net::kCollTagBase - net::kMpTagBase,
                   "user tag out of range");
  net::Message m;
  if (Status s = rel_recv(src, net::kMpTagBase + tag, &m); !s.is_ok()) {
    return s;
  }
  if (m.payload.size() > capacity) {
    return make_error(ErrorCode::kOutOfRange, "recv buffer too small");
  }
  if (!m.payload.empty()) std::memcpy(buffer, m.payload.data(),
                                      m.payload.size());
  if (status != nullptr) {
    status->source = m.header.src;
    status->tag = m.header.tag - net::kMpTagBase;
    status->bytes = m.payload.size();
  }
  return Status::ok();
}

Status Comm::try_barrier() {
  count_collective(metrics_.barriers, 0);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return Status::ok();
  const Tag tag = next_collective_tag();
  for (int dist = 1; dist < n; dist <<= 1) {
    const NodeId to = (rank() + dist) % n;
    const NodeId from = (rank() - dist % n + n) % n;
    if (Status s = rel_send(to, tag, nullptr, 0); !s.is_ok()) return s;
    net::Message m;
    if (Status s = rel_recv(from, tag, &m); !s.is_ok()) return s;
  }
  return Status::ok();
}

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
      if (Status s = rel_recv(src, tag, &m); !s.is_ok()) return s;
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
      if (Status s = rel_send(dst, tag, data, bytes); !s.is_ok()) return s;
    }
    mask >>= 1;
  }
  return Status::ok();
}

Status Comm::try_reduce_with(
    void* buffer, std::size_t bytes, NodeId root, Tag tag,
    const std::function<void(void*, const void*)>& combine) {
  const int n = size();
  const int relative = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((relative & mask) == 0) {
      const int source_rel = relative | mask;
      if (source_rel < n) {
        const NodeId source = (source_rel + root) % n;
        net::Message m;
        if (Status s = rel_recv(source, tag, &m); !s.is_ok()) return s;
        if (m.payload.size() != bytes) {
          return make_error(ErrorCode::kInternal, "reduce size mismatch");
        }
        combine(buffer, m.payload.data());
      }
    } else {
      const NodeId dst = ((relative & ~mask) + root) % n;
      return rel_send(dst, tag, buffer, bytes);
    }
    mask <<= 1;
  }
  return Status::ok();
}

Status Comm::try_allreduce(void* buffer, std::size_t count, DType dtype,
                           Op op) {
  count_collective(metrics_.allreduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const std::size_t bytes = count * dtype_size(dtype);
  if (size() > 1) {
    const Tag tag = next_collective_tag();
    if (Status s = try_reduce_with(
            buffer, bytes, /*root=*/0, tag,
            [&](void* inout, const void* in) {
              reduce_inplace(dtype, op, inout, in, count);
            });
        !s.is_ok()) {
      return s;
    }
  }
  return try_bcast(buffer, bytes, /*root=*/0);
}

}  // namespace parade::mp

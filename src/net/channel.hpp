// Channel: a node's attachment to the interconnect fabric. Implementations:
// InProcFabric (all nodes in one process; used by the virtual cluster, unit
// tests and the figure benches) and SocketFabric (one process per node over
// Unix-domain sockets; used by the parade_run launcher).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "net/mailbox.hpp"
#include "net/message.hpp"
#include "net/metrics.hpp"
#include "obs/span.hpp"

namespace parade::net {

class Channel {
 public:
  virtual ~Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  NodeId rank() const { return rank_; }
  int size() const { return size_; }

  /// Sends `payload` to `dst` with the given tag and virtual timestamp.
  /// Thread-safe. Self-sends (dst == rank()) are delivered locally.
  /// Returns kUnavailable when the destination is down/closed, kIoError on a
  /// transport write failure; the message is dropped in both cases.
  virtual Status send(NodeId dst, Tag tag, std::vector<std::uint8_t> payload,
                      VirtualUs vtime) = 0;

  /// Virtual so decorators (net/faulty.hpp) can expose the wrapped channel's
  /// mailbox: consumers always receive from the same queue the real
  /// transport delivers into.
  virtual Mailbox& inbox() { return inbox_; }

  /// Stops delivery and wakes blocked receivers.
  virtual void shutdown() { inbox_.close(); }

  /// True when the channel may drop, duplicate or reorder messages (an
  /// active fault plan). mp::Comm reads it once to pick its wire: plain on a
  /// lossless channel, seq+ack framed on a lossy one.
  virtual bool lossy() const { return false; }

 protected:
  Channel(NodeId rank, int size)
      : rank_(rank), size_(size), metrics_(rank, size) {}

  /// Records send-side metrics and the trace event. Implementations call this
  /// once per accepted message, before handing it to the transport. The emit
  /// carries the sending thread's ambient span so the send shows up as a
  /// child of whatever protocol operation issued it.
  void record_send(NodeId dst, Tag tag, std::size_t bytes, VirtualUs vtime) {
    metrics_.on_send(dst, tag, bytes);
    auto& reg = obs::Registry::instance();
    if (reg.trace_enabled()) {
      const obs::SpanContext ctx = obs::current_span_context();
      reg.emit_with_context(obs::TraceKind::kSend, rank_, tag, vtime,
                            ctx.trace_id, ctx.span_id);
    }
  }

  /// Records recv-side metrics and enqueues into this channel's inbox.
  /// Returns kUnavailable if the inbox is already closed. The emit links the
  /// delivery to the *sender's* span via the header's trace context — this is
  /// the cross-node edge parade_trace reconstructs.
  Status deliver_local(Message message) {
    const Tag tag = message.header.tag;
    const std::size_t bytes = message.payload.size();
    const double vtime = message.header.vtime;
    const std::uint64_t trace_id = message.header.trace_id;
    const std::uint64_t parent_span = message.header.span_id;
    if (!inbox_.deliver(std::move(message))) {
      return make_error(ErrorCode::kUnavailable,
                        "rank " + std::to_string(rank_) + " inbox closed");
    }
    metrics_.on_recv(tag, bytes);
    auto& reg = obs::Registry::instance();
    if (reg.trace_enabled()) {
      reg.emit_with_context(obs::TraceKind::kRecv, rank_, tag, vtime, trace_id,
                            parent_span);
    }
    return Status::ok();
  }

  NodeId rank_;
  int size_;
  Mailbox inbox_;
  ChannelMetrics metrics_;
};

}  // namespace parade::net

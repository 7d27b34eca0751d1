// Wire message format shared by every transport.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace parade::net {

// Tag-space partition. DSM protocol traffic and MP (application/collective)
// traffic never alias: the DSM communication thread only consumes DSM-class
// tags, application threads only consume MP-class tags.
inline constexpr Tag kDsmTagBase = 0;        // DSM protocol: [0, 1000)
inline constexpr Tag kDsmTagLimit = 1000;
inline constexpr Tag kMpTagBase = 1000;      // user point-to-point: [1000, 1<<20)
inline constexpr Tag kCollTagBase = 1 << 20; // collective internals: [1<<20, 1<<29)
inline constexpr Tag kAckTagBase = 1 << 29;  // reliability acks: >= 1<<29

struct MessageHeader {
  NodeId src = 0;
  NodeId dst = 0;
  Tag tag = 0;
  std::uint32_t payload_size = 0;
  /// Sender's virtual timestamp at send time (microseconds). Consumers merge
  /// `vtime + transfer_us(payload_size)` into their own clock.
  VirtualUs vtime = 0.0;
  /// Causal trace context (docs/OBSERVABILITY.md): the sender's ambient span,
  /// stamped by the fabrics when PARADE_TRACE is on, 0 otherwise. On the
  /// socket wire these travel in a version-gated frame extension so pre-trace
  /// peers and old captures still decode (docs/PROTOCOL.md).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

struct Message {
  MessageHeader header;
  std::vector<std::uint8_t> payload;

  Message() = default;
  Message(MessageHeader h, std::vector<std::uint8_t> p)
      : header(h), payload(std::move(p)) {
    header.payload_size = static_cast<std::uint32_t>(payload.size());
  }

  /// Borrowed view of the payload for zero-copy consumers (the DSM view
  /// decoders read page/diff bytes straight out of the delivered buffer —
  /// on the in-process fabric that buffer is the sender's, moved here
  /// without a copy).
  std::span<const std::uint8_t> span() const { return payload; }
};

}  // namespace parade::net

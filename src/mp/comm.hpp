// Thread-safe MPI-subset communicator (paper §5.3).
//
// The paper implements point-to-point send/receive plus MPI_Bcast and
// MPI_Allreduce on VIA, because public MPI libraries of the time were not
// thread-safe. This communicator provides those (plus barrier, reduce,
// gather, allgather) over any net::Channel. Thread safety: any number of
// threads may issue point-to-point operations concurrently; collectives must
// be called by exactly one thread per node at a time, in the same order on
// every node (standard MPI semantics).
//
// Virtual-time integration: threads that participate in the direct-execution
// timing bind their ThreadClock with bind_thread_clock(); every operation
// then charges LogGP costs and propagates causality through message
// timestamps. Unbound threads communicate untimed.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/topology.hpp"
#include "mp/datatypes.hpp"
#include "net/channel.hpp"
#include "net/fault.hpp"
#include "obs/metric.hpp"
#include "vtime/clock.hpp"
#include "vtime/cost_model.hpp"

namespace parade::mp {

/// Alias of vtime::bind_thread_clock — all Comm operations on the calling
/// thread charge their costs to the bound clock.
using vtime::bind_thread_clock;
using vtime::thread_clock;

struct RecvStatus {
  NodeId source = 0;
  Tag tag = 0;
  std::size_t bytes = 0;
};

/// Opt-in reliable-delivery mode for the try_* operations: every data message
/// carries a 4-byte sequence prefix, the receiver acks it on the dedicated
/// ack tag (net::kAckTagBase) and suppresses duplicates, and the sender
/// retransmits unacked messages whenever a bounded wait times out. With
/// `enabled == false` the try_* operations degrade to their unreliable
/// counterparts (no framing, no acks) and simply report channel errors.
struct Reliability {
  bool enabled = false;
  net::RetryPolicy retry{};
};

class Comm {
 public:
  /// `topology` carries this node's rank, the cluster
  /// size, and the tree fan-out. Must agree with the channel's rank/size
  /// (checked).
  Comm(const Topology& topology, net::Channel& channel,
       vtime::NetworkModel model, Reliability reliability = {});

  NodeId rank() const { return topo_.rank; }
  int size() const { return topo_.nodes; }
  const Topology& topology() const { return topo_; }
  const vtime::NetworkModel& model() const { return model_; }
  net::Channel& channel() { return channel_; }

  // ---- point-to-point ----

  /// Sends `bytes` of `data` to `dst` with user tag `tag` (>= 0).
  void send(NodeId dst, Tag tag, const void* data, std::size_t bytes);

  /// Receives into `buffer` (capacity `bytes`); blocks. `src`/`tag` may be
  /// kAnyNode / kAnyTag. Returns actual source/tag/size; the message must fit.
  RecvStatus recv(NodeId src, Tag tag, void* buffer, std::size_t bytes);

  /// Receives a whole message as a byte vector.
  std::vector<std::uint8_t> recv_bytes(NodeId src, Tag tag,
                                       RecvStatus* status = nullptr);

  /// Non-blocking probe-and-take. Returns std::nullopt when nothing matches.
  std::optional<std::vector<std::uint8_t>> try_recv_bytes(
      NodeId src, Tag tag, RecvStatus* status = nullptr);

  // ---- collectives (call once per node, same order everywhere) ----

  /// Dissemination barrier, O(log N) rounds.
  void barrier();

  /// Binomial-tree broadcast of `bytes` from `root`.
  void bcast(void* data, std::size_t bytes, NodeId root);

  /// Binomial-tree reduction to `root`; `buffer` holds this node's
  /// contribution on entry and, on the root, the result on exit.
  void reduce(void* buffer, std::size_t count, DType dtype, Op op, NodeId root);

  /// Reduce-to-0 + broadcast: every node ends with the reduction result.
  void allreduce(void* buffer, std::size_t count, DType dtype, Op op);

  /// Allreduce with a user combine function over opaque bytes (used for the
  /// merged multi-variable reduction structures of paper §4.2).
  void allreduce_user(void* buffer, std::size_t bytes, const UserReduceFn& fn);

  /// Root gathers `bytes` from each node into `out` (size N*bytes, rank
  /// order). `out` may be null on non-roots.
  void gather(const void* contribution, std::size_t bytes, void* out,
              NodeId root);

  /// gather to 0 + bcast.
  void allgather(const void* contribution, std::size_t bytes, void* out);

  // ---- reliable / fault-tolerant variants ----
  //
  // These return Status instead of aborting: a peer that stays unreachable
  // past the retry budget yields kUnavailable rather than a hang. When
  // Reliability.enabled they run over the seq+ack wire protocol described on
  // struct Reliability, surviving message drops and duplicates.
  //
  // Contract: reliable operations must be issued by one thread per node at a
  // time (same as collectives), and every node of the job must use the try_*
  // family consistently — plain send()/recv() bypass the seq framing.

  const Reliability& reliability() const { return reliability_; }

  /// Reliable send: blocks until `dst` acked the message (retransmitting on
  /// timeout) or the retry budget is exhausted. Incoming data that arrives
  /// while waiting is acked and stashed for later try_recv calls.
  Status try_send(NodeId dst, Tag tag, const void* data, std::size_t bytes);

  /// Reliable receive into `buffer` (capacity `capacity`). `src` may be
  /// kAnyNode; `tag` must be concrete. kUnavailable when the channel closes,
  /// the peer is gone, or nothing arrives within the retry budget.
  Status try_recv(NodeId src, Tag tag, void* buffer, std::size_t capacity,
                  RecvStatus* status = nullptr);

  /// Collectives with bounded waits; any unreachable partner surfaces as
  /// kUnavailable on every node that depended on it.
  Status try_barrier();
  Status try_bcast(void* data, std::size_t bytes, NodeId root);
  Status try_allreduce(void* buffer, std::size_t count, DType dtype, Op op);

  /// Linger after the last reliable operation (MPI_Finalize-style). There is
  /// no background progress thread, so once a node stops calling try_*
  /// operations it also stops answering retransmissions — and a peer whose
  /// final ack was lost in transit would retry into silence forever.
  /// quiesce() keeps pumping (re-acking duplicate data, absorbing stray acks)
  /// until the link has stayed silent for a few retry timeouts. Call it once
  /// per node after the last reliable operation, before fabric teardown.
  void quiesce();

 private:
  Tag next_collective_tag();
  void send_wire(NodeId dst, Tag wire_tag, const void* data, std::size_t bytes);
  net::Message recv_wire(NodeId src, Tag wire_tag);
  void reduce_with(void* buffer, std::size_t bytes, NodeId root, Tag tag,
                   const std::function<void(void*, const void*)>& combine);
  void count_collective(obs::Counter* which, std::size_t payload_bytes);

  // Reliable wire engine (see Reliability). rel_pump is the single progress
  // loop: it consumes acks, acks + dedupes + stashes data, retransmits the
  // unacked window on timeout, and returns when its goal is met.
  Status rel_send(NodeId dst, Tag wire_tag, const void* data,
                  std::size_t bytes);
  Status rel_recv(NodeId src, Tag wire_tag, net::Message* out);
  Status rel_pump(bool want_data, NodeId want_src, Tag want_tag,
                  std::uint32_t want_ack_seq, net::Message* out);
  void post_ack(NodeId dst, std::uint32_t seq);
  Status try_reduce_with(void* buffer, std::size_t bytes, NodeId root, Tag tag,
                         const std::function<void(void*, const void*)>& combine);

  net::Channel& channel_;
  Topology topo_;
  vtime::NetworkModel model_;
  Reliability reliability_;
  std::atomic<std::uint32_t> collective_seq_{0};

  // Reliable-mode state; touched only under the one-reliable-op-at-a-time
  // contract, so unsynchronized.
  std::uint32_t rel_seq_ = 0;
  struct PendingSend {
    NodeId dst;
    Tag wire_tag;
    std::vector<std::uint8_t> payload;  // seq-prefixed, for retransmission
    VirtualUs stamp;
  };
  std::unordered_map<std::uint32_t, PendingSend> rel_unacked_;
  net::SeqWindow rel_seen_{4096};
  std::deque<net::Message> rel_stash_;  // acked + deduped, seq stripped

  // Registry handles (resolved once in the ctor; see docs/OBSERVABILITY.md).
  struct Metrics {
    obs::Counter* p2p_sends;
    obs::Counter* p2p_send_bytes;
    obs::Counter* coll_payload_bytes;
    obs::Counter* barriers;
    obs::Counter* bcasts;
    obs::Counter* reduces;
    obs::Counter* allreduces;
    obs::Counter* gathers;
    obs::Counter* allgathers;
    obs::Counter* retries;  ///< mp.retry.count: reliable-mode retransmissions
    obs::Timer* recv_wait;
    /// mp.collective_ns: wall latency distribution of every collective entry
    /// (nested internal collectives record their own samples, matching the
    /// nested counter convention above).
    obs::Histogram* collective_ns;
  };
  Metrics metrics_;
};

}  // namespace parade::mp

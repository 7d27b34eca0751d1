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
// Wire: every operation is written once over one private send/receive pair.
// The channel decides how that pair frames messages (net::Channel::lossy()):
//  - A lossless channel gets the plain wire: one message per send, no
//    framing, no acks, so LogGP timing and message counts are exactly the
//    model's.
//  - A lossy channel (an active fault plan) gets the reliable wire: each
//    message carries a 4-byte sequence prefix, the receiver acks it on
//    net::kAckTagBase and drops duplicates, and the sender blocks until the
//    ack arrives, retransmitting once per RetryPolicy timeout. A progress
//    thread owned by the Comm consumes every MP frame and answers with acks,
//    so a node keeps acknowledging while its own threads block elsewhere
//    (in a DSM barrier, say) and a peer whose ack was lost is never
//    stranded. A peer silent past the retry budget surfaces as kUnavailable.
//
// Errors: each blocking operation has a Status-returning try_ form; its void
// form checks it and aborts on failure. The runtime calls the void forms.
// (try_recv_bytes is the non-blocking probe, not a try_ form.)
//
// Virtual-time integration: threads that participate in the direct-execution
// timing bind their ThreadClock with bind_thread_clock(); every operation
// then charges LogGP costs and propagates causality through message
// timestamps. Unbound threads communicate untimed. Acks are outside the cost
// model and charge nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
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

class Comm {
 public:
  /// `topology` carries this node's rank, the cluster size, and the tree
  /// fan-out. Must agree with the channel's rank/size (checked). `retry`
  /// bounds the reliable wire's waits; the plain wire never times out.
  Comm(const Topology& topology, net::Channel& channel,
       vtime::NetworkModel model, net::RetryPolicy retry = {});
  ~Comm();

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  NodeId rank() const { return topo_.rank; }
  int size() const { return topo_.nodes; }
  const Topology& topology() const { return topo_; }
  const vtime::NetworkModel& model() const { return model_; }
  net::Channel& channel() { return channel_; }

  // ---- point-to-point ----

  /// Sends `bytes` of `data` to `dst` with user tag `tag` (>= 0). On the
  /// reliable wire, returns once `dst` acked the message.
  Status try_send(NodeId dst, Tag tag, const void* data, std::size_t bytes);
  void send(NodeId dst, Tag tag, const void* data, std::size_t bytes);

  /// Receives into `buffer` (capacity `capacity`); blocks. `src`/`tag` may be
  /// kAnyNode / kAnyTag. kOutOfRange when the message does not fit.
  Status try_recv(NodeId src, Tag tag, void* buffer, std::size_t capacity,
                  RecvStatus* status = nullptr);
  RecvStatus recv(NodeId src, Tag tag, void* buffer, std::size_t bytes);

  /// Receives a whole message as a byte vector.
  std::vector<std::uint8_t> recv_bytes(NodeId src, Tag tag,
                                       RecvStatus* status = nullptr);

  /// Non-blocking probe-and-take. Returns std::nullopt when nothing matches.
  std::optional<std::vector<std::uint8_t>> try_recv_bytes(
      NodeId src, Tag tag, RecvStatus* status = nullptr);

  // ---- collectives (call once per node, same order everywhere) ----

  /// Dissemination barrier, O(log N) rounds.
  Status try_barrier();
  void barrier();

  /// Binomial-tree broadcast of `bytes` from `root`.
  Status try_bcast(void* data, std::size_t bytes, NodeId root);
  void bcast(void* data, std::size_t bytes, NodeId root);

  /// Binomial-tree reduction to `root`; `buffer` holds this node's
  /// contribution on entry and, on the root, the result on exit.
  Status try_reduce(void* buffer, std::size_t count, DType dtype, Op op,
                    NodeId root);
  void reduce(void* buffer, std::size_t count, DType dtype, Op op, NodeId root);

  /// Reduce-to-0 + broadcast: every node ends with the reduction result.
  Status try_allreduce(void* buffer, std::size_t count, DType dtype, Op op);
  void allreduce(void* buffer, std::size_t count, DType dtype, Op op);

  /// Allreduce with a user combine function over opaque bytes (used for the
  /// merged multi-variable reduction structures of paper §4.2).
  Status try_allreduce_user(void* buffer, std::size_t bytes,
                            const UserReduceFn& fn);
  void allreduce_user(void* buffer, std::size_t bytes, const UserReduceFn& fn);

  /// Root gathers `bytes` from each node into `out` (size N*bytes, rank
  /// order). `out` may be null on non-roots.
  Status try_gather(const void* contribution, std::size_t bytes, void* out,
                    NodeId root);
  void gather(const void* contribution, std::size_t bytes, void* out,
              NodeId root);

  /// gather to 0 + bcast.
  Status try_allgather(const void* contribution, std::size_t bytes, void* out);
  void allgather(const void* contribution, std::size_t bytes, void* out);

  /// Linger after the last operation (MPI_Finalize-style). A peer whose final
  /// ack was lost retransmits until this node answers, and the answers stop
  /// when the Comm is destroyed. quiesce() returns once no MP frame has
  /// arrived for three retry timeouts, bounded by the retry budget. Call it
  /// once per node after the last operation; a no-op on the plain wire.
  void quiesce();

 private:
  /// Receive predicate: `wire_tag` is a concrete wire tag, or kAnyTag for
  /// every user point-to-point tag; `src` may be kAnyNode.
  struct Match {
    NodeId src;
    Tag wire_tag;
    bool operator()(const net::MessageHeader& h) const;
  };

  Tag next_collective_tag();
  void count_collective(obs::Counter* which, std::size_t payload_bytes);

  // The one wire pair every operation goes through; recv_wire and poll_wire
  // charge the receive side of the LogGP model.
  Status send_wire(NodeId dst, Tag wire_tag, const void* data,
                   std::size_t bytes);
  Status recv_wire(const Match& match, net::Message* out);
  std::optional<net::Message> poll_wire(const Match& match);
  void charge_recv(const net::Message& m);

  Status reduce_with(void* buffer, std::size_t bytes, NodeId root,
                     const std::function<void(void*, const void*)>& combine);

  // Reliable wire (lossy channels only).
  Status rel_send(NodeId dst, Tag wire_tag, std::vector<std::uint8_t> frame,
                  VirtualUs stamp);
  Status rel_recv(const Match& match, net::Message* out);
  /// Waits on rel_cv_ until `done()` holds, calling `on_timeout()` (without
  /// the lock) after each silent retry window. kUnavailable once the channel
  /// closes or the budget runs out; `what()` names the peer and the tag.
  Status rel_wait(std::unique_lock<std::mutex>& lock,
                  const std::function<bool()>& done,
                  const std::function<void()>& on_timeout,
                  const std::function<std::string()>& what);
  std::optional<net::Message> rel_take_locked(const Match& match);
  void progress_loop();
  void accept_frame(net::Message msg);
  void post_ack(NodeId dst, std::uint32_t seq);

  net::Channel& channel_;
  Topology topo_;
  vtime::NetworkModel model_;
  net::RetryPolicy retry_;
  const bool lossy_;
  std::atomic<std::uint32_t> collective_seq_{0};

  // Reliable-wire state, shared by the caller threads and the progress
  // thread.
  std::mutex rel_mutex_;
  std::condition_variable rel_cv_;
  std::uint32_t rel_seq_ = 0;
  std::unordered_set<std::uint32_t> rel_unacked_;
  net::SeqWindow rel_seen_{4096};
  std::deque<net::Message> rel_stash_;  // acked + deduped, seq stripped
  std::uint64_t rel_frames_ = 0;        // frames received, for quiesce()
  bool rel_closed_ = false;             // the channel's inbox closed
  std::atomic<bool> stopping_{false};

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
    obs::Counter* retries;  ///< mp.retry.count: reliable-wire retransmissions
    obs::Timer* recv_wait;
    /// mp.collective_ns: wall latency distribution of every collective entry
    /// (nested internal collectives record their own samples, matching the
    /// nested counter convention above).
    obs::Histogram* collective_ns;
  };
  Metrics metrics_;

  std::thread progress_;  // runs progress_loop() on lossy channels only
};

}  // namespace parade::mp

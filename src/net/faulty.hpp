// FaultyFabric / FaultyChannel: a Channel decorator that injects faults from
// a seeded FaultPlan (net/fault.hpp) on the send side, before the wrapped
// transport sees the message.
//
// Per ordered link (src→dst) the channel keeps an independent RNG stream,
// message counter, and a one-slot reorder stash, so a link's fault sequence
// is a deterministic function of (seed, src, dst, link message index).
// Decision order per message — partition, drop, delay, reorder, duplicate —
// consumes one draw each, keeping streams aligned regardless of which faults
// are enabled.
//
//  - drop / partition: the message is swallowed and send() still reports OK,
//    exactly like a lossy wire; recovery is the consumers' retry loops.
//  - delay: the message's virtual timestamp is bumped by a bounded amount
//    (no wall-clock sleep — the vtime model is the clock that matters).
//  - reorder: the message waits in the stash and is emitted after the link's
//    next message (retry traffic naturally flushes stashes).
//  - duplicate: the message is forwarded twice.
//
// Self-sends (dst == rank) are never perturbed: local delivery carries
// shutdown and loopback control traffic that has no retry path.
//
// With an inactive plan FaultyChannel is a strict pass-through — same calls,
// same bytes, zero extra state — which is what lets it stay permanently in
// the stack (DsmCluster / VirtualCluster / ProcessRuntime wrap their fabric
// whenever PARADE_FAULT_SEED or PARADE_FAULT_PLAN is set).
//
// Injected faults are surfaced per sending node as obs counters:
//   net.fault.dropped / .partition_dropped / .duplicated / .reordered /
//   .delayed / .injected (total perturbations)
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "net/channel.hpp"
#include "net/fault.hpp"
#include "net/inproc.hpp"

namespace parade::net {

class FaultyChannel final : public Channel {
 public:
  /// Decorates `inner`; `plan` is copied. The caller keeps ownership of the
  /// inner channel and must keep it alive. `epoch` is the barrier-epoch
  /// estimate shared by every channel of one fabric (only the master's
  /// channel observes departures); standalone channels own a private one.
  FaultyChannel(Channel& inner, const FaultPlan& plan,
                std::shared_ptr<std::atomic<std::int64_t>> epoch = nullptr);

  Status send(NodeId dst, Tag tag, std::vector<std::uint8_t> payload,
              VirtualUs vtime) override;

  Mailbox& inbox() override { return inner_.inbox(); }
  void shutdown() override { inner_.shutdown(); }
  bool lossy() const override { return plan_.active(); }

 private:
  struct LinkState {
    LinkRng rng;
    std::uint64_t msg_count = 0;
    std::optional<Message> stash;
  };

  struct Metrics {
    obs::Counter* injected;
    obs::Counter* dropped;
    obs::Counter* partition_dropped;
    obs::Counter* duplicated;
    obs::Counter* reordered;
    obs::Counter* delayed;
  };

  bool link_partitioned(NodeId dst, std::uint64_t msg_index) const;

  Channel& inner_;
  FaultPlan plan_;
  std::vector<std::unique_ptr<LinkState>> links_;  // indexed by dst
  std::mutex mutex_;  // guards links_ state (send is thread-safe)
  std::shared_ptr<std::atomic<std::int64_t>> epoch_;
  Metrics metrics_;
};

/// In-process fabric with fault injection: wraps an InProcFabric and hands
/// out FaultyChannel views of its channels.
class FaultyFabric {
 public:
  FaultyFabric(int size, FaultPlan plan);

  int size() const { return inner_.size(); }
  Channel& channel(NodeId rank);
  InProcFabric& inner() { return inner_; }

  void shutdown() { inner_.shutdown(); }

 private:
  InProcFabric inner_;
  std::vector<std::unique_ptr<FaultyChannel>> channels_;
};

}  // namespace parade::net

// Team: a node's persistent worker pool and the fork-join machinery for
// parallel regions (paper §4.1), plus the one node-local synchronization
// phase behind every barrier and hybrid collective: the threads of a node
// meet once, and the last one to arrive runs the inter-node step (the DSM
// barrier or one allreduce) for all of them.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/topology.hpp"
#include "common/types.hpp"
#include "mp/datatypes.hpp"
#include "obs/metric.hpp"
#include "runtime/context.hpp"

namespace parade {

class NodeRuntime;

/// Which levels a barrier synchronizes. The runtime exposes one consolidated
/// entry point, `Team::barrier(BarrierScope)` (mirrored by the public
/// `parade::barrier(BarrierScope)`).
enum class BarrierScope {
  kNode,    ///< intra-node pthread barrier only (clock max-combined)
  kGlobal,  ///< intra-node combine + inter-node DSM tree barrier
};

class Team {
 public:
  /// `topology` is this node's view of the cluster
  /// (rank, node count, barrier fan-out) and must agree with the owning
  /// NodeRuntime's DSM engine (checked).
  Team(NodeRuntime& node, const Topology& topology, int num_threads);
  ~Team();

  int num_threads() const { return num_threads_; }
  const Topology& topology() const { return topo_; }

  /// Spawns the persistent workers (local ids 1..T-1).
  void start();
  /// Stops and joins the workers.
  void stop();

  /// Runs `body` on all T threads (caller participates as local thread 0)
  /// and finishes with the implicit global barrier, which is also the join:
  /// no thread touches region state after it.
  void run_region(const std::function<void()>& body);

  /// Consolidated barrier entry point: one phase() whose inter-node step is
  /// the DSM tree barrier (kGlobal) or nothing (kNode).
  void barrier(BarrierScope scope);

  /// One node-local synchronization phase. Every thread of the node (only
  /// the main thread in a serial section) arrives with its clock and, when
  /// `contribution` is set, folds its `bytes` into the phase's scratch
  /// buffer with `combine`. The last thread to arrive merges the node's
  /// maximum clock, runs `inter_node` on the scratch buffer outside the lock
  /// and publishes its finishing time; every other thread blocks once and
  /// merges that time. Returns the scratch buffer, which stays valid until
  /// the caller's next phase: two buffers alternate by generation, and a
  /// buffer is reused only after every thread has arrived at the phase in
  /// between.
  const std::uint8_t* phase(const void* contribution, std::size_t bytes,
                            const mp::UserReduceFn* combine,
                            const std::function<void(std::uint8_t*)>& inter_node);

  // --- single construct support (see api.cpp) ---
  struct SingleSlot {
    bool claimed = false;
    bool done = false;
    VirtualUs done_vtime = 0.0;
    /// Broadcast payload, so every thread of the node (not just the claimer)
    /// observes the construct's small-data result.
    std::vector<std::uint8_t> payload;
    /// The claimer's buffer the payload was copied from. A waiter passing
    /// the same (node-shared) buffer already sees the value there.
    const void* source = nullptr;
  };
  /// Claims construct instance `seq` for the calling thread; returns true for
  /// the executing thread.
  bool single_try_claim(long seq);
  void single_mark_done(long seq, VirtualUs vtime, const void* payload,
                        std::size_t bytes);
  /// Blocks until done; copies the payload into `out` (size `bytes`) unless
  /// `out` is the claimer's own buffer, which the claimer may be reading.
  VirtualUs single_wait_done(long seq, void* out, std::size_t bytes);

  // --- worksharing-loop state (dynamic/guided scheduling) ---
  struct LoopState {
    long next = 0;
    long end = 0;
    int finished_threads = 0;
  };
  /// Returns the shared state for loop instance `seq`, creating it with
  /// [begin,end) bounds on first touch.
  LoopState& loop_state(long seq, long begin, long end);
  /// Grabs the next chunk; false when the loop is exhausted.
  bool loop_next_chunk(LoopState& state, long chunk, long* lo, long* hi);
  /// Marks the calling thread done; the last thread reclaims the state.
  void loop_finish(long seq);

  /// True while a parallel region is executing on this node.
  bool in_region() const { return in_region_; }

 private:
  void worker_loop(LocalThreadId local_id);

  NodeRuntime& node_;
  Topology topo_;
  int num_threads_;

  std::vector<std::thread> workers_;
  std::mutex region_mutex_;
  std::condition_variable region_cv_;
  long region_epoch_ = 0;
  bool stopping_ = false;
  const std::function<void()>* region_body_ = nullptr;
  VirtualUs fork_vtime_ = 0.0;

  std::mutex phase_mutex_;
  std::condition_variable phase_cv_;
  long phase_generation_ = 0;
  int phase_arrived_ = 0;
  VirtualUs phase_max_ = 0.0;   ///< latest arrival clock of the open phase
  VirtualUs phase_done_ = 0.0;  ///< finishing time of the last closed phase
  std::array<std::vector<std::uint8_t>, 2> phase_scratch_;

  std::mutex single_mutex_;
  std::condition_variable single_cv_;
  std::unordered_map<long, SingleSlot> singles_;

  std::mutex loop_mutex_;
  std::unordered_map<long, LoopState> loops_;

  bool in_region_ = false;

  // Registry handles, indexed by local thread id where per-thread (barrier
  // wait exposes straggler threads, chunk counts expose load imbalance).
  obs::Counter* regions_metric_ = nullptr;
  std::vector<obs::Timer*> barrier_wait_;
  std::vector<obs::Counter*> loop_chunks_;
};

}  // namespace parade

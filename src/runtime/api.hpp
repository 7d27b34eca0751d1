// The ParADE runtime API — the hybrid SAS + message-passing interface the
// OpenMP translator targets (paper §4) and that hand-written SPMD programs
// use directly. All functions operate on the calling thread's context; call
// them only from inside VirtualCluster::exec / ProcessRuntime::exec.
//
// Programming model (redundant serial execution): every node runs the same
// program. Serial sections execute on each node's main thread; `parallel`
// forks the node team so the bodies of all nodes' teams together form the
// global OpenMP team of nodes × threads_per_node threads.
//
// Data classes:
//  - large shared data lives in the DSM pool (`shmalloc`), kept consistent by
//    HLRC with migratory home;
//  - small synchronization-managed data (reduction variables, single-
//    initialized scalars) is *replicated per node* and kept consistent by
//    explicit collectives — the paper's update-protocol fast path.
//
// Synchronization: every barrier and hybrid collective is one node-local
// phase (Team::phase). The node's threads meet once; the last one to arrive
// runs the inter-node step (the DSM barrier or one allreduce) for all of
// them, so which thread talks to other nodes is unspecified.
#pragma once

#include <cstring>
#include <functional>

#include "mp/comm.hpp"
#include "runtime/node_runtime.hpp"

namespace parade {

// ---- identity ----
int num_nodes();
NodeId node_id();
int threads_per_node();
/// Global team size (nodes × threads_per_node).
int num_threads();
/// Global thread id (node_id * threads_per_node + local id).
GlobalThreadId thread_id();
LocalThreadId local_thread_id();
/// True on the global master thread (node 0, local thread 0).
bool is_master();

NodeRuntime& this_node();

// ---- shared memory ----
/// SPMD shared-pool allocation: all nodes must allocate in the same order;
/// the returned pointer names the same logical object on every node.
void* shmalloc(std::size_t bytes, std::size_t align = 64);

template <typename T>
T* shmalloc_array(std::size_t count) {
  return static_cast<T*>(shmalloc(count * sizeof(T), alignof(T) > 64 ? alignof(T) : 64));
}

// ---- parallel regions & barriers ----
/// Runs `body` on this node's team (the paper's parallel directive). Must be
/// called from the node main thread, outside another region. Ends with the
/// implicit global barrier.
void parallel(const std::function<void()>& body);

/// Consolidated barrier entry point: `barrier(BarrierScope::kGlobal)` is the
/// full hierarchical barrier (intra-node combine + inter-node HLRC tree
/// barrier), `barrier(BarrierScope::kNode)` synchronizes this node's team
/// only. The tree shape comes from the runtime's Topology
/// (--barrier=flat|tree:<k> / PARADE_BARRIER); see docs/SCALING.md.
void barrier(BarrierScope scope);
/// Full hierarchical barrier — shorthand for barrier(BarrierScope::kGlobal).
void barrier();

// ---- worksharing loops ----
enum class ScheduleKind { kStatic, kStaticChunk, kDynamic, kGuided };
struct Schedule {
  ScheduleKind kind = ScheduleKind::kStatic;
  long chunk = 1;
};

/// Distributes [begin, end) across the global team and calls
/// body(lo, hi) for each chunk assigned to the calling thread. Static
/// scheduling partitions globally block-wise (paper's only mode); dynamic and
/// guided partition the node's block among its threads (the paper's §8
/// future-work extension, hierarchical form). Ends with the implicit global
/// barrier unless `nowait`.
void parallel_for(long begin, long end, const Schedule& schedule,
                  const std::function<void(long, long)>& body,
                  bool nowait = false);

/// Convenience: static schedule, per-chunk body.
inline void parallel_for(long begin, long end,
                         const std::function<void(long, long)>& body) {
  parallel_for(begin, end, Schedule{}, body);
}

/// OpenMP `schedule(runtime)`: parses OMP_SCHEDULE ("static", "dynamic,4",
/// "guided", optionally with a chunk). Unset/unparsable -> static.
Schedule schedule_from_env();

/// This thread's static slice of [begin, end) — usable without the loop
/// machinery for SPMD-style code.
void static_slice(long begin, long end, long* lo, long* hi);

// ---- hybrid synchronization (the ParADE fast paths, paper §4.2) ----

/// Team-wide reduction of node-replicated small data: every team thread
/// contributes once; on return the reduction result has been merged into
/// *replica identically on every node. This implements the translated forms
/// of `reduction(op:var)`, analyzable `critical`, and `atomic` — pthread
/// combining inside the node, one MPI_Allreduce between nodes, no DSM locks,
/// no twins/diffs, no extra barrier. Each call is one node-local phase: the
/// threads meet once and the last to arrive runs the allreduce.
template <typename T>
void team_update(T* replica, T contribution, mp::Op op);

/// Multi-variable form: the translator packs several reduction variables in
/// one struct and supplies a combine function (paper §4.2).
/// `replica` must be node-shared storage (the same pointer on every thread of
/// a node, e.g. a main-frame variable captured by reference): the combined
/// update is applied once per node, by whichever thread of the node arrived
/// last — which one is unspecified. For a thread-private accumulator use
/// team_allreduce_bytes.
void team_update_bytes(void* replica, const void* contribution,
                       std::size_t bytes, const mp::UserReduceFn& combine);

/// Allreduce across the whole team: on entry `inout` holds this thread's
/// contribution (private storage is fine); on return every thread's `inout`
/// holds the global reduction.
void team_allreduce_bytes(void* inout, std::size_t bytes,
                          const mp::UserReduceFn& combine);

/// Team-wide allreduce of a scalar (returns the reduced value; input is this
/// thread's contribution).
template <typename T>
T team_reduce(T contribution, mp::Op op) {
  team_allreduce_bytes(&contribution, sizeof(T),
                       [op](void* inout, const void* in, std::size_t) {
                         mp::reduce_inplace(mp::dtype_of<T>(), op, inout, in, 1);
                       });
  return contribution;
}

/// The translated ParADE `single`: the construct's code runs exactly once
/// globally (on node 0); `data`/`bytes` name the node-replicated result it
/// initializes, which is broadcast to all nodes. Threads that skip the body
/// wait node-locally only — no inter-node barrier (paper Figure 3).
void single_small(void* data, std::size_t bytes,
                  const std::function<void()>& init);

/// `master` construct helper.
inline bool on_master_thread() { return is_master(); }

// ---- conventional-SDSM synchronization (KDSM baseline, Figures 2/3) ----

/// critical via the home-based DSM lock (inter- and intra-node mutual
/// exclusion through the lock manager, page consistency via lock write
/// notices).
void critical_conventional(int lock_id, const std::function<void()>& body);

/// single via DSM lock + shared generation flag + global barrier.
/// `gen_flag` must point into the DSM pool and start at 0; `generation` must
/// increase monotonically per dynamic encounter (e.g. the iteration count).
void single_conventional(int lock_id, std::int64_t* gen_flag,
                         std::int64_t generation,
                         const std::function<void()>& body);

/// Raw DSM lock access (translator fallback for non-analyzable critical).
void dsm_lock(int lock_id);
void dsm_unlock(int lock_id);

// ---- timing ----
/// The calling thread's virtual time (µs).
VirtualUs vtime_now();

// ---- template implementation ----

template <typename T>
void team_update(T* replica, T contribution, mp::Op op) {
  team_update_bytes(replica, &contribution, sizeof(T),
                    [op](void* inout, const void* in, std::size_t) {
                      mp::reduce_inplace(mp::dtype_of<T>(), op, inout, in, 1);
                    });
}

}  // namespace parade

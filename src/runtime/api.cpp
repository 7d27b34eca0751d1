#include "runtime/api.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/env.hpp"
#include "common/status.hpp"

namespace parade {
namespace {

/// Block partition of `n` items among `parties`: party `index` gets
/// [*lo, *hi) relative to 0.
void block_partition(long n, long parties, long index, long* lo, long* hi) {
  const long base = n / parties;
  const long rem = n % parties;
  *lo = index * base + std::min<long>(index, rem);
  *hi = *lo + base + (index < rem ? 1 : 0);
}

}  // namespace

int num_nodes() { return current_ctx().node->num_nodes(); }
NodeId node_id() { return current_ctx().node->node_id(); }
int threads_per_node() { return current_ctx().node->threads_per_node(); }
int num_threads() {
  NodeRuntime& node = *current_ctx().node;
  return node.num_nodes() * node.threads_per_node();
}
GlobalThreadId thread_id() {
  ThreadCtx& ctx = current_ctx();
  return ctx.node->node_id() * ctx.node->threads_per_node() + ctx.local_id;
}
LocalThreadId local_thread_id() { return current_ctx().local_id; }
bool is_master() {
  ThreadCtx& ctx = current_ctx();
  return ctx.node->node_id() == 0 && ctx.local_id == 0;
}

NodeRuntime& this_node() { return *current_ctx().node; }

void* shmalloc(std::size_t bytes, std::size_t align) {
  return current_ctx().node->dsm().shmalloc(bytes, align);
}

void parallel(const std::function<void()>& body) {
  ThreadCtx& ctx = current_ctx();
  if (ctx.node->team().in_region()) {
    // Nested parallelism serializes (OpenMP 1.0 default; the paper ignores
    // nested directives).
    body();
    return;
  }
  ctx.node->team().run_region(body);
}

void barrier(BarrierScope scope) { current_ctx().node->team().barrier(scope); }
void barrier() { barrier(BarrierScope::kGlobal); }

void static_slice(long begin, long end, long* lo, long* hi) {
  ThreadCtx& ctx = current_ctx();
  const long g = thread_id();
  block_partition(end - begin, ctx.node->num_nodes() *
                                   ctx.node->threads_per_node(),
                  g, lo, hi);
  *lo += begin;
  *hi += begin;
}

void parallel_for(long begin, long end, const Schedule& schedule,
                  const std::function<void(long, long)>& body, bool nowait) {
  ThreadCtx& ctx = current_ctx();
  switch (schedule.kind) {
    case ScheduleKind::kStatic: {
      long lo, hi;
      static_slice(begin, end, &lo, &hi);
      if (lo < hi) body(lo, hi);
      break;
    }
    case ScheduleKind::kStaticChunk: {
      const long chunk = std::max<long>(1, schedule.chunk);
      const long stride = static_cast<long>(num_threads()) * chunk;
      for (long c = begin + thread_id() * chunk; c < end; c += stride) {
        body(c, std::min(end, c + chunk));
      }
      break;
    }
    case ScheduleKind::kDynamic:
    case ScheduleKind::kGuided: {
      // Hierarchical (paper §8 future work): static block per node, then
      // dynamic/guided chunking among the node's threads.
      long node_lo, node_hi;
      block_partition(end - begin, ctx.node->num_nodes(),
                      ctx.node->node_id(), &node_lo, &node_hi);
      node_lo += begin;
      node_hi += begin;
      const long seq = ctx.loop_seq++;
      Team& team = ctx.node->team();
      Team::LoopState& state = team.loop_state(seq, node_lo, node_hi);
      const long chunk = schedule.kind == ScheduleKind::kGuided
                             ? -1
                             : std::max<long>(1, schedule.chunk);
      long lo, hi;
      while (team.loop_next_chunk(state, chunk, &lo, &hi)) {
        body(lo, hi);
      }
      team.loop_finish(seq);
      break;
    }
  }
  if (!nowait) barrier();
}

// Both hybrid collectives are one Team::phase: the node's contributions are
// folded in node-local scratch (Fig. 2's intra-node mutual exclusion) and the
// last thread to arrive runs the one allreduce between nodes (Fig. 2's
// inter-node synchronization).
void team_update_bytes(void* replica, const void* contribution,
                       std::size_t bytes, const mp::UserReduceFn& combine) {
  NodeRuntime& node = *current_ctx().node;
  (void)node.team().phase(contribution, bytes, &combine,
                          [&](std::uint8_t* scratch) {
                            node.comm().allreduce_user(scratch, bytes, combine);
                            combine(replica, scratch, bytes);
                          });
}

void team_allreduce_bytes(void* inout, std::size_t bytes,
                          const mp::UserReduceFn& combine) {
  NodeRuntime& node = *current_ctx().node;
  const std::uint8_t* result =
      node.team().phase(inout, bytes, &combine, [&](std::uint8_t* scratch) {
        node.comm().allreduce_user(scratch, bytes, combine);
      });
  std::memcpy(inout, result, bytes);
}

void single_small(void* data, std::size_t bytes,
                  const std::function<void()>& init) {
  ThreadCtx& ctx = current_ctx();
  Team& team = ctx.node->team();
  const long seq = ctx.single_seq++;
  if (team.single_try_claim(seq)) {
    if (ctx.node->node_id() == 0) init();
    if (bytes > 0) ctx.node->comm().bcast(data, bytes, /*root=*/0);
    ctx.clock.sync_cpu();
    team.single_mark_done(seq, ctx.clock.now(), data, bytes);
  } else {
    const VirtualUs done = team.single_wait_done(seq, data, bytes);
    ctx.clock.sync_cpu();
    ctx.clock.merge(done);
  }
}

void critical_conventional(int lock_id, const std::function<void()>& body) {
  dsm::DsmNode& node = current_ctx().node->dsm();
  node.lock_acquire(lock_id);
  body();
  node.lock_release(lock_id);
}

void single_conventional(int lock_id, std::int64_t* gen_flag,
                         std::int64_t generation,
                         const std::function<void()>& body) {
  dsm::DsmNode& node = current_ctx().node->dsm();
  node.lock_acquire(lock_id);
  if (*gen_flag < generation) {
    *gen_flag = generation;
    body();
  }
  node.lock_release(lock_id);
  barrier();
}

void dsm_lock(int lock_id) { current_ctx().node->dsm().lock_acquire(lock_id); }
void dsm_unlock(int lock_id) { current_ctx().node->dsm().lock_release(lock_id); }

VirtualUs vtime_now() {
  ThreadCtx& ctx = current_ctx();
  ctx.clock.sync_cpu();
  return ctx.clock.now();
}

Schedule schedule_from_env() {
  Schedule schedule;
  const std::string text = env::get_string_or("OMP_SCHEDULE", "static");
  std::string kind = text;
  long chunk = 0;
  if (const std::size_t comma = text.find(','); comma != std::string::npos) {
    kind = text.substr(0, comma);
    chunk = std::strtol(text.c_str() + comma + 1, nullptr, 10);
  }
  if (kind == "dynamic") {
    schedule.kind = ScheduleKind::kDynamic;
    schedule.chunk = chunk > 0 ? chunk : 1;
  } else if (kind == "guided") {
    schedule.kind = ScheduleKind::kGuided;
  } else if (chunk > 0) {
    schedule.kind = ScheduleKind::kStaticChunk;
    schedule.chunk = chunk;
  }
  return schedule;
}

namespace ompshim::detail {
int allocate_dsm_lock_id() { return current_ctx().node->allocate_lock_id(); }
}  // namespace ompshim::detail

}  // namespace parade

#include "runtime/team.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "common/status.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runtime/node_runtime.hpp"

namespace parade {

Team::Team(NodeRuntime& node, const Topology& topology, int num_threads)
    : node_(node),
      topo_(topology),
      num_threads_(num_threads) {
  PARADE_CHECK_MSG(num_threads >= 1, "team needs at least one thread");
  PARADE_CHECK_MSG(topo_.valid(), "invalid team topology");
  PARADE_CHECK_MSG(
      topo_.rank == node.node_id() && topo_.nodes == node.num_nodes(),
      "team topology disagrees with the node runtime");
  auto& reg = obs::Registry::instance();
  const NodeId node_id = node.node_id();
  regions_metric_ = &reg.counter(node_id, "rt.parallel_regions");
  barrier_wait_.reserve(static_cast<std::size_t>(num_threads));
  loop_chunks_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    const std::string id = std::to_string(t);
    barrier_wait_.push_back(&reg.timer(node_id, "rt.barrier_wait.t" + id));
    loop_chunks_.push_back(&reg.counter(node_id, "rt.loop_chunks.t" + id));
  }
}

Team::~Team() { stop(); }

void Team::start() {
  for (LocalThreadId id = 1; id < num_threads_; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

void Team::stop() {
  {
    std::lock_guard lock(region_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  region_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void Team::worker_loop(LocalThreadId local_id) {
  logging::set_thread_node_tag(node_.node_id());
  ThreadCtx ctx(node_.config().cpu_scale);
  ctx.node = &node_;
  ctx.local_id = local_id;
  detail::set_current_ctx(&ctx);

  long seen_epoch = 0;
  for (;;) {
    const std::function<void()>* body = nullptr;
    {
      std::unique_lock lock(region_mutex_);
      region_cv_.wait(lock,
                      [&] { return stopping_ || region_epoch_ > seen_epoch; });
      if (stopping_) break;
      seen_epoch = region_epoch_;
      body = region_body_;
      // Fork semantics: a worker's virtual clock starts at the master's
      // fork time.
      ctx.clock.reset(fork_vtime_);
    }
    ctx.single_seq = 0;
    ctx.loop_seq = 0;
    (*body)();
    barrier(BarrierScope::kGlobal);  // implicit barrier at the end of a parallel region
  }
  detail::set_current_ctx(nullptr);
}

void Team::run_region(const std::function<void()>& body) {
  ThreadCtx& ctx = current_ctx();
  PARADE_CHECK_MSG(ctx.local_id == 0, "only the node main thread forks");
  ctx.clock.sync_cpu();
  regions_metric_->add();
  // Root span for the work-sharing region: every DSM fetch, lock, or barrier
  // the region body triggers on this thread nests under it.
  obs::ScopedSpan span(obs::TraceKind::kRegion, node_.node_id(), 0);
  {
    // Construct-instance state is per region; all workers are idle here.
    std::lock_guard single_lock(single_mutex_);
    singles_.clear();
  }
  {
    std::lock_guard loop_lock(loop_mutex_);
    loops_.clear();
  }
  {
    std::lock_guard lock(region_mutex_);
    in_region_ = true;  // before workers can wake and hit a barrier
    region_body_ = &body;
    fork_vtime_ = ctx.clock.now();
    ++region_epoch_;
  }
  region_cv_.notify_all();

  const long saved_single_seq = ctx.single_seq;
  const long saved_loop_seq = ctx.loop_seq;
  ctx.single_seq = 0;
  ctx.loop_seq = 0;
  body();
  // The implicit barrier is also the join: past it a worker touches only its
  // own context and region_mutex_, so the next region may be published.
  barrier(BarrierScope::kGlobal);
  ctx.single_seq = saved_single_seq;
  ctx.loop_seq = saved_loop_seq;
  in_region_ = false;
}

void Team::barrier(BarrierScope scope) {
  if (scope == BarrierScope::kNode) {
    (void)phase(nullptr, 0, nullptr, nullptr);
    return;
  }
  // Wall time from arrival to departure: dominated by waiting for the
  // slowest teammate plus the inter-node DSM barrier.
  obs::ScopedTimer wait(
      barrier_wait_[static_cast<std::size_t>(current_ctx().local_id)]);
  // The DSM barrier merges the global departure time into the caller's clock.
  (void)phase(nullptr, 0, nullptr,
              [this](std::uint8_t*) { node_.dsm().barrier(); });
}

const std::uint8_t* Team::phase(
    const void* contribution, std::size_t bytes,
    const mp::UserReduceFn* combine,
    const std::function<void(std::uint8_t*)>& inter_node) {
  ThreadCtx& ctx = current_ctx();
  ctx.clock.sync_cpu();
  // In a serial section the main thread is the whole local team.
  const int parties = in_region_ ? num_threads_ : 1;
  std::unique_lock lock(phase_mutex_);
  const long generation = phase_generation_;
  std::vector<std::uint8_t>& scratch =
      phase_scratch_[static_cast<std::size_t>(generation & 1)];
  if (contribution != nullptr) {
    const auto* in = static_cast<const std::uint8_t*>(contribution);
    if (phase_arrived_ == 0) {
      scratch.assign(in, in + bytes);
    } else {
      PARADE_CHECK_MSG(scratch.size() == bytes, "team collective size mismatch");
      (*combine)(scratch.data(), in, bytes);
    }
  }
  phase_max_ = std::max(phase_max_, ctx.clock.now());
  if (++phase_arrived_ < parties) {
    phase_cv_.wait(lock, [&] { return phase_generation_ != generation; });
    ctx.clock.merge(phase_done_);
    return scratch.data();
  }

  // Last arriver: every teammate is blocked above, so the phase state is
  // ours until the generation advances.
  ctx.clock.merge(phase_max_);
  lock.unlock();
  if (inter_node) {
    inter_node(scratch.data());
    ctx.clock.sync_cpu();
  }
  lock.lock();
  phase_done_ = ctx.clock.now();
  phase_max_ = 0.0;
  phase_arrived_ = 0;
  ++phase_generation_;
  lock.unlock();
  phase_cv_.notify_all();
  return scratch.data();
}

bool Team::single_try_claim(long seq) {
  std::lock_guard lock(single_mutex_);
  SingleSlot& slot = singles_[seq];
  if (slot.claimed) return false;
  slot.claimed = true;
  return true;
}

void Team::single_mark_done(long seq, VirtualUs vtime, const void* payload,
                            std::size_t bytes) {
  {
    std::lock_guard lock(single_mutex_);
    SingleSlot& slot = singles_[seq];
    slot.done = true;
    slot.done_vtime = vtime;
    slot.payload.assign(static_cast<const std::uint8_t*>(payload),
                        static_cast<const std::uint8_t*>(payload) + bytes);
    slot.source = payload;
  }
  single_cv_.notify_all();
}

VirtualUs Team::single_wait_done(long seq, void* out, std::size_t bytes) {
  std::unique_lock lock(single_mutex_);
  single_cv_.wait(lock, [&] { return singles_[seq].done; });
  SingleSlot& slot = singles_[seq];
  PARADE_CHECK_MSG(slot.payload.size() == bytes, "single payload mismatch");
  if (bytes > 0 && out != slot.source) {
    std::memcpy(out, slot.payload.data(), bytes);
  }
  return slot.done_vtime;
}

Team::LoopState& Team::loop_state(long seq, long begin, long end) {
  std::lock_guard lock(loop_mutex_);
  auto [it, inserted] = loops_.try_emplace(seq);
  if (inserted) {
    it->second.next = begin;
    it->second.end = end;
  }
  return it->second;
}

bool Team::loop_next_chunk(LoopState& state, long chunk, long* lo, long* hi) {
  std::lock_guard lock(loop_mutex_);
  if (state.next >= state.end) return false;
  if (chunk <= 0) {
    // Guided: chunk shrinks with the remaining work (min 1 iteration).
    const long remaining = state.end - state.next;
    chunk = std::max<long>(1, remaining / (2 * num_threads_));
  }
  *lo = state.next;
  *hi = std::min(state.end, state.next + chunk);
  state.next = *hi;
  loop_chunks_[static_cast<std::size_t>(current_ctx().local_id)]->add();
  return true;
}

void Team::loop_finish(long seq) {
  std::lock_guard lock(loop_mutex_);
  auto it = loops_.find(seq);
  PARADE_CHECK(it != loops_.end());
  if (++it->second.finished_threads == num_threads_) {
    loops_.erase(it);
  }
}

}  // namespace parade

#include "dsm/node.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "common/log.hpp"
#include "dsm/diff.hpp"
#include "dsm/notice.hpp"
#include "dsm/rules.hpp"
#include "dsm/sigsegv.hpp"
#include "obs/hist.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace parade::dsm {
namespace {

constexpr const char* kRetryExhausted = "dsm.retry_exhausted";  // flight record

/// The DSM half of a retry-exhaustion diagnosis.
std::string missing(const std::string& reply, const std::string& from,
                    Epoch epoch) {
  return "no " + reply + " from " + from + " at epoch " + std::to_string(epoch);
}

/// Decodes into `out`, or logs and drops (false) a malformed frame.
template <typename Msg>
bool decode(const net::Message& message, Msg& out) {
  auto decoded = codec<Msg>::try_decode(message.payload);
  if (!decoded.is_ok()) {
    PLOG_WARN("dropping malformed tag " << message.header.tag << " frame: "
                                        << decoded.status().to_string());
    return false;
  }
  out = std::move(decoded).value();
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Runtime invariant checking (PARADE_CHECKED): the protocol rules consulted
// below are pure functions (dsm/rules.hpp) shared with the model checker;
// these hooks re-assert their preconditions in the live engine and surface
// violations as `dsm.invariant.violations` instead of aborting, so chaos
// runs can finish and report every violation they hit.

void DsmNode::check_invariant(bool ok, const char* invariant, PageId page) {
#ifdef PARADE_CHECKED
  if (ok) return;
  if (invariant_violations_ != nullptr) invariant_violations_->add(1);
  PLOG_ERROR("DSM invariant violated: " << invariant << " (page " << page
                                        << ")");
  // Dump the trace ring while the evidence is still in it.
  obs::Registry::instance().flight_record(std::string("dsm.invariant.") +
                                          invariant);
#else
  (void)ok;
  (void)invariant;
  (void)page;
#endif
}

void DsmNode::set_state(PageEntry& entry, PageId page, PageState to) {
  check_invariant(rules::transition_allowed(entry.state, to), "fig5.edge",
                  page);
  entry.state = to;
}

// ---------------------------------------------------------------------------

DsmNode::DsmNode(const Topology& topology, net::Channel& channel,
                 DsmConfig config)
    : channel_(channel),
      topo_(topology),
      config_(config),
      stats_(topology.rank) {
  PARADE_CHECK_MSG(topo_.valid(), "invalid topology");
  PARADE_CHECK_MSG(topo_.rank == channel.rank() &&
                       topo_.nodes == channel.size(),
                   "topology disagrees with channel rank/size");
}

void DsmNode::post(NodeId dst, Tag tag, std::vector<std::uint8_t> payload,
                   VirtualUs vtime) {
  Status s = channel_.send(dst, tag, std::move(payload), vtime);
  if (!s.is_ok()) {
    PLOG_WARN("dsm send tag " << tag << " to node " << dst
                              << " dropped: " << s.to_string());
  }
}

DsmNode::~DsmNode() { shutdown(); }

Status DsmNode::start() {
  PARADE_CHECK_MSG(!started_, "DsmNode already started");
  // Fresh metrics per cluster run: tests and benches build consecutive
  // virtual clusters in one process and assert exact protocol counts.
  obs::Registry::instance().reset_node(rank());
  invariant_violations_ =
      &obs::Registry::instance().counter(rank(), "dsm.invariant.violations");
  fetch_hist_ = &obs::Registry::instance().hist(rank(), "dsm.fetch_ns");
  lock_grant_hist_ =
      &obs::Registry::instance().hist(rank(), "dsm.lock_grant_ns");
  barrier_wait_hist_ =
      &obs::Registry::instance().hist(rank(), "dsm.barrier_wait_ns");
  auto mapping = SegmentPool::create(config_.pool_bytes, config_.page_bytes,
                                     config_.map_method);
  if (!mapping.is_ok()) return mapping.status();
  mapping_ = std::move(mapping).value();

  pages_ = std::make_unique<PageTable>(config_.num_pages(), /*initial_home=*/0);
  if (!config_.sharded_homes) {
    if (rank() == 0) {
      // The master starts as home of every page with a zero-filled, readable
      // copy; everyone else faults pages in on first access.
      if (Status s = protect_span(0, config_.pool_bytes, PROT_READ); !s) {
        return s;
      }
      for (std::size_t p = 0; p < config_.num_pages(); ++p) {
        pages_->entry(static_cast<PageId>(p)).state = PageState::kReadOnly;
      }
    }
  } else {
    // Sharded directory: homes stripe round-robin (rules::default_home), so
    // every node seeds its own shard with a zero-filled, readable copy and
    // first-touch traffic spreads instead of storming node 0.
    for (std::size_t p = 0; p < config_.num_pages(); ++p) {
      const PageId page = static_cast<PageId>(p);
      PageEntry& entry = pages_->entry(page);
      entry.home = rules::default_home(page, size(), /*sharded=*/true);
      if (entry.home != rank()) continue;
      if (Status s = protect_span(p * config_.page_bytes, config_.page_bytes,
                                  PROT_READ);
          !s) {
        return s;
      }
      entry.state = PageState::kReadOnly;
    }
  }

  sigsegv::ensure_installed();
  sigsegv::register_range(mapping_->app_view(), config_.pool_bytes, this);
  comm_thread_ = std::thread([this] { comm_loop(); });
  started_ = true;
  return Status::ok();
}

void DsmNode::shutdown() {
  if (!started_) return;
  started_ = false;
  // Benign failure: the comm thread may already have exited on mailbox close.
  (void)channel_.send(rank(), kTagShutdown, {}, 0.0);
  if (comm_thread_.joinable()) comm_thread_.join();
  sigsegv::unregister_range(mapping_->app_view());
}

void* DsmNode::shmalloc(std::size_t bytes, std::size_t align) {
  std::lock_guard lock(alloc_mutex_);
  PARADE_CHECK_MSG(align > 0 && (align & (align - 1)) == 0,
                   "alignment must be a power of two");
  alloc_offset_ = (alloc_offset_ + align - 1) & ~(align - 1);
  PARADE_CHECK_MSG(alloc_offset_ + bytes <= config_.pool_bytes,
                   "shared pool exhausted");
  void* p = mapping_->app_view() + alloc_offset_;
  alloc_offset_ += bytes;
  return p;
}

std::size_t DsmNode::offset_of(const void* p) const {
  const auto* byte_ptr = static_cast<const std::byte*>(p);
  PARADE_CHECK(byte_ptr >= mapping_->app_view() &&
               byte_ptr < mapping_->app_view() + config_.pool_bytes);
  return static_cast<std::size_t>(byte_ptr - mapping_->app_view());
}

std::byte* DsmNode::sys_page(PageId page) const {
  return mapping_->real_address(View::kSys, page, 0);
}

std::byte* DsmNode::twin_page(PageId page) const {
  return mapping_->real_address(View::kTwin, page, 0);
}

Status DsmNode::protect_span(std::size_t offset, std::size_t bytes,
                             int prot) {
  stats_.inc_protect_calls();
  return mapping_->protect_app(offset, bytes, prot);
}

void DsmNode::protect(PageId page, int prot) {
  Status s = protect_span(static_cast<std::size_t>(page) * config_.page_bytes,
                          config_.page_bytes, prot);
  PARADE_CHECK_MSG(s.is_ok(), s.message());
}

void DsmNode::protect_runs(std::vector<PageId> pages, int prot) {
  std::sort(pages.begin(), pages.end());
  for (std::size_t i = 0; i < pages.size();) {
    std::size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1) ++j;
    Status s = protect_span(
        static_cast<std::size_t>(pages[i]) * config_.page_bytes,
        (j - i) * config_.page_bytes, prot);
    PARADE_CHECK_MSG(s.is_ok(), s.message());
    i = j;
  }
}

// ---------------------------------------------------------------------------
// Requester side: an application thread sends one request and waits for its
// reply (page fetch, diff acks, barrier departure, lock grant, release ack).

void DsmNode::repost(NodeId dst, Tag tag, std::vector<std::uint8_t> payload,
                     VirtualUs vtime) {
  stats_.inc_retries();
  post(dst, tag, std::move(payload), vtime);
}

VirtualUs DsmNode::send_stamp() {
  auto* clock = vtime::thread_clock();
  if (clock == nullptr) return 0.0;
  clock->sync_cpu();
  clock->add(config_.net.send_overhead_us);
  return clock->now();
}

void DsmNode::merge_reply(const net::Message& reply, bool charge_cpu) {
  auto* clock = vtime::thread_clock();
  if (clock == nullptr) return;
  if (charge_cpu) clock->sync_cpu();
  clock->merge(reply.header.vtime +
               config_.net.transfer_us(reply.payload.size()));
}

template <typename Reply, typename What, typename OnReply, typename Resend>
void DsmNode::await_reply(Tag reply_tag, const What& what,
                          const OnReply& on_reply, const Resend& resend) {
  net::RetryBudget budget{config_.retry, rank(), kRetryExhausted};
  for (;;) {
    auto msg = channel_.inbox().recv_match_for(
        [reply_tag](const net::MessageHeader& h) { return h.tag == reply_tag; },
        config_.retry.timeout());
    if (!msg.has_value()) {
      PARADE_CHECK_MSG(!channel_.inbox().closed(), "channel closed: " + what());
      const Status s = budget.spend(what);
      PARADE_CHECK_MSG(s.is_ok(), s.message());
      resend();
      continue;
    }
    Reply reply;
    if (decode(*msg, reply) && on_reply(reply, *msg)) return;
  }
}

// ---------------------------------------------------------------------------
// Fault path

bool DsmNode::handle_fault(void* addr, bool is_write) {
  const auto* byte_ptr = static_cast<const std::byte*>(addr);
  if (byte_ptr < mapping_->app_view() ||
      byte_ptr >= mapping_->app_view() + config_.pool_bytes) {
    return false;
  }
  const PageId page = static_cast<PageId>(
      static_cast<std::size_t>(byte_ptr - mapping_->app_view()) /
      config_.page_bytes);
  PageEntry& entry = pages_->entry(page);
  std::unique_lock lock(entry.mutex);

  if (is_write) {
    stats_.inc_write_faults();
  } else {
    stats_.inc_read_faults();
  }
  // A store to a page a flush has write-protected but not yet scanned.
  entry.cv.wait(lock, [&] { return !entry.flushing; });

  for (;;) {
    switch (rules::fault_action(entry.state, is_write)) {
      case rules::FaultAction::kStartFetch:
        fetch_page(page, lock, entry);
        break;

      case rules::FaultAction::kJoinWaiters:
        set_state(entry, page, PageState::kBlocked);
        [[fallthrough]];
      case rules::FaultAction::kWaitForFetch:
        // Wait for the fetch to end, whatever state it left.
        entry.cv.wait(lock,
                      [&] { return !rules::fetch_in_flight(entry.state); });
        break;

      case rules::FaultAction::kUpgradeToDirty:
        upgrade_to_dirty(page, entry);
        return true;

      case rules::FaultAction::kDone:
        return true;
    }
    // The fetch ended: charge the stall, then re-dispatch (a write fault
    // still needs the upgrade; a copy invalidated since starts a new fetch).
    if (auto* clock = vtime::thread_clock()) {
      clock->sync_cpu();
      clock->merge(entry.ready_vtime);
    }
  }
}

void DsmNode::fetch_page(PageId page, std::unique_lock<std::mutex>& lock,
                         PageEntry& entry) {
  set_state(entry, page, PageState::kTransient);
  const NodeId home = entry.home;
  PARADE_CHECK_MSG(home != rank(), "home node must never fault INVALID");
  const std::uint32_t seq = ++entry.fetch_seq;
  lock.unlock();

  stats_.inc_page_fetches();
  // Root span of the fetch trace: the request below carries its context, so
  // the home's page_serve span (and the reply's delivery) link back here.
  // Inert when tracing is off — the fault fast path gains no atomics.
  obs::ScopedSpan span(obs::TraceKind::kPageFault, rank(),
                       static_cast<Tag>(page));
  obs::ScopedHistTimer fetch_scope(fetch_hist_);
  const VirtualUs stamp = send_stamp();
  const auto payload = codec<PageRequestMsg>::encode({page, seq});
  post(home, kTagPageRequest, payload, stamp);

  lock.lock();
  // Only the thread that initiated the fetch retransmits; threads that piled
  // up behind it (BLOCKED) wait indefinitely — the fetcher either succeeds
  // and wakes them or aborts the process. The fetch is over once the state
  // leaves TRANSIENT/BLOCKED, even if the installed copy was invalidated
  // before this thread woke: every later reply would be dropped, so waiting
  // for READ_ONLY here could only time out. handle_fault re-fetches.
  const auto ready = [&] { return !rules::fetch_in_flight(entry.state); };
  net::RetryBudget budget{config_.retry, rank(), kRetryExhausted};
  while (!entry.cv.wait_for(lock, config_.retry.timeout(), ready)) {
    const Status s = budget.spend([&] {
      return missing("page " + std::to_string(page) + " reply",
                     "home node " + std::to_string(home), epoch_);
    });
    PARADE_CHECK_MSG(s.is_ok(), s.message());
    lock.unlock();
    repost(home, kTagPageRequest, payload, stamp);
    lock.lock();
  }
}

void DsmNode::upgrade_to_dirty(PageId page, PageEntry& entry) {
  if (rules::needs_twin(entry.home, rank())) {
    // Non-home writers keep a twin so the flush can diff (§5.2.1: the home
    // itself needs no twin — all diffs merge into its copy). The page is
    // still write-protected, so the sys view holds the pre-write copy.
    std::memcpy(twin_page(page), sys_page(page), config_.page_bytes);
    entry.twin = true;
    stats_.inc_twins_created();
  }
  protect(page, PROT_READ | PROT_WRITE);
  set_state(entry, page, PageState::kDirty);
  {
    std::lock_guard dirty_lock(dirty_mutex_);
    dirty_now_.push_back(page);
    interval_dirty_.insert(page);
  }
}

// ---------------------------------------------------------------------------
// Flush

std::vector<PageId> DsmNode::drain_dirty_now() {
  std::lock_guard lock(dirty_mutex_);
  std::vector<PageId> pages;
  pages.swap(dirty_now_);
  return pages;
}

void DsmNode::flush_pages(const std::vector<PageId>& pages, bool at_barrier) {
  if (pages.empty()) return;
  std::lock_guard flush_lock(flush_mutex_);
  // Pick the pages to downgrade and write-protect them in runs before any
  // scan. Application threads may run next to a lock-time flush: a store
  // either lands before the protection (and is in the diff) or faults and
  // waits for the scan below to end the page's `flushing` window.
  std::vector<PageId> downgraded;
  for (const PageId page : pages) {
    PageEntry& entry = pages_->entry(page);
    std::lock_guard lock(entry.mutex);
    // Already flushed, or listed twice.
    if (entry.state != PageState::kDirty || entry.flushing) continue;
    if (entry.home == rank()) {
      const rules::HomeFlush decision =
          rules::home_flush(entry.remote_copy, at_barrier);
      entry.remote_copy = decision.remote_copy;
      if (decision.keep_exclusive) {
        // No peer holds a copy: the page stays DIRTY and writable, and no
        // write notice goes out. The next serve ends exclusivity.
        entry.exclusive = true;
        check_invariant(
            rules::exclusive_unshared(entry.exclusive, entry.remote_copy),
            "home.exclusive_unshared", page);
        std::lock_guard dirty_lock(dirty_mutex_);
        interval_dirty_.erase(page);
        continue;
      }
    }
    entry.flushing = true;
    downgraded.push_back(page);
  }
  protect_runs(downgraded, PROT_READ);

  struct PendingDiff {
    NodeId home;
    PageId page;
    std::vector<std::uint8_t> payload;  // kept for retransmission
    VirtualUs stamp;
  };
  std::unordered_map<std::uint32_t, PendingDiff> pending;  // by seq
  for (const PageId page : downgraded) {
    PageEntry& entry = pages_->entry(page);
    std::unique_lock lock(entry.mutex);
    entry.flushing = false;
    entry.cv.notify_all();

    if (entry.home == rank()) {
      set_state(entry, page, PageState::kReadOnly);
      continue;
    }

    const std::uint32_t seq = next_seq();
    std::size_t diff_bytes = 0;
    std::vector<std::uint8_t> payload;
    // Diff runs stream from the sys view straight into the wire buffer
    // (codec<DiffMsg> layout), compared against this node's twin frame.
    check_invariant(entry.twin, "twin.present", page);
    if (entry.twin) {
      WireBuffer buffer;
      buffer.put(page);
      buffer.put(seq);
      diff_bytes = append_diff(
          buffer, reinterpret_cast<const std::uint8_t*>(sys_page(page)),
          reinterpret_cast<const std::uint8_t*>(twin_page(page)),
          config_.page_bytes);
      if (diff_bytes > 0) payload = std::move(buffer).take();
    }
    entry.twin = false;
    set_state(entry, page, PageState::kReadOnly);
    const NodeId home = entry.home;
    lock.unlock();

    if (diff_bytes == 0) continue;  // page written but unchanged
    stats_.inc_diffs_created();
    stats_.inc_diff_bytes_sent(static_cast<std::int64_t>(diff_bytes));
    const VirtualUs stamp = send_stamp();
    post(home, kTagDiff, payload, stamp);
    pending.emplace(seq, PendingDiff{home, page, std::move(payload), stamp});
  }
  if (pending.empty()) return;
  const auto what = [&] {
    std::string who;
    for (const auto& [seq, diff] : pending) {
      who += (who.empty() ? "node " : ", node ") + std::to_string(diff.home) +
             " for page " + std::to_string(diff.page);
    }
    return missing("diff ack", who, epoch_);
  };
  await_reply<DiffAckMsg>(
      kTagDiffAck, what,
      [&](const DiffAckMsg& acked, const net::Message& msg) {
        // Unknown seq: a duplicate ack, or one for a diff a previous flush
        // retransmitted right before its original ack arrived. Ignore.
        if (pending.erase(acked.seq) == 0) return false;
        merge_reply(msg);
        return pending.empty();
      },
      [&] {
        for (const auto& [seq, diff] : pending) {
          repost(diff.home, kTagDiff, diff.payload, diff.stamp);
        }
      });
}

// ---------------------------------------------------------------------------
// Barrier (one caller per node)
//
// The inter-node barrier runs over the k-ary gather/scatter tree described
// by topo_ (docs/SCALING.md). Every node gathers its direct children's
// aggregated subtree arrivals, merges their write-notice streams with its
// own, and — unless it is the root — forwards one coalesced arrival to its
// parent. The root closes the epoch (home migration, §5.2.2) and the
// departure is re-stamped hop by hop back down the same edges. The flat
// barrier is the degenerate fan-out where the root parents everyone, so
// flat vs tree is configuration, not a second code path.

void DsmNode::barrier() {
  auto* clock = vtime::thread_clock();
  if (clock != nullptr) clock->sync_cpu();

  // Every node's span for this barrier shares the deterministic epoch trace
  // id, so parade_trace can line them up without any extra communication;
  // arrive/depart messages sent inside carry this span as the cross-node
  // parent.
  obs::ScopedSpan span(obs::TraceKind::kBarrier, rank(),
                       static_cast<Tag>(epoch_),
                       obs::SpanContext{obs::epoch_trace_id(epoch_), 0});
  obs::ScopedHistTimer wait_scope(barrier_wait_hist_);

  flush_pages(drain_dirty_now(), /*at_barrier=*/true);

  // This node's own write notices for the closing interval.
  std::vector<PageId> own_pages;
  {
    std::lock_guard lock(dirty_mutex_);
    own_pages.assign(interval_dirty_.begin(), interval_dirty_.end());
    interval_dirty_.clear();
  }
  std::sort(own_pages.begin(), own_pages.end());
  stats_.inc_write_notices_sent(static_cast<std::int64_t>(own_pages.size()));

  // Communication-thread CPU spent this phase either overlapped (dedicated
  // CPU) or serialized with computation (paper's 1T-1CPU / 2T-2CPU).
  const VirtualUs phase_comm = comm_ledger_.drain_phase();
  if (clock != nullptr && !config_.machine.comm_thread_dedicated()) {
    clock->add(phase_comm);
  }

  const std::vector<NodeId> children = topo_.children();
  auto gathered = gather_children(children);

  // Merge the children's streams with our own notices. Subtrees are
  // disjoint, so each modifier appears in at most one source; the map keeps
  // blocks modifier-sorted for re-packing and page order deterministic.
  std::map<NodeId, std::vector<PageId>> subtree_notices;
  if (!own_pages.empty()) subtree_notices[rank()] = std::move(own_pages);
  VirtualUs latest = clock != nullptr ? clock->now() : 0.0;
  const PageId num_pages = static_cast<PageId>(config_.num_pages());
  for (auto& [src, arrival] : gathered) {
    auto& [arr, contribution] = arrival;
    PARADE_CHECK_MSG(arr.epoch == epoch_, "barrier epoch mismatch");
    latest = std::max(latest, contribution);
    auto blocks =
        notice::try_unpack_notices(arr.notice_stream, size(), num_pages);
    // handle_barrier_arrive validated the stream before recording it.
    PARADE_CHECK_MSG(blocks.has_value(), "gathered notice stream malformed");
    for (auto& block : *blocks) {
      subtree_notices[block.modifier] = std::move(block.pages);
    }
  }
  // Gather-side processing: one receive overhead per direct child. At a
  // flat root this is the O(nodes) term the tree caps at O(fanout).
  latest +=
      static_cast<double>(children.size()) * config_.net.recv_overhead_us;
  if (clock != nullptr) clock->merge(latest);

  BarrierDepartMsg depart;
  if (topo_.is_root()) {
    // The root closes the epoch: page -> modifiers across the whole tree,
    // then the §5.2.2 tie-break (rules::choose_home): unique modifier →
    // current home → smallest node id. Only a unique modifier ever migrates
    // the page — with several modifiers the old home holds the only merged
    // copy.
    std::map<PageId, std::vector<NodeId>> modifiers;
    for (const auto& [modifier, pages] : subtree_notices) {
      for (const PageId page : pages) modifiers[page].push_back(modifier);
    }
    depart.epoch = epoch_;
    depart.entries.reserve(modifiers.size());
    for (const auto& [page, mods] : modifiers) {
      DepartEntry entry;
      entry.page = page;
      const NodeId home = pages_->home_of(page);
      const rules::HomeDecision decision =
          rules::choose_home(home, mods, config_.home_migration);
      entry.sole_modifier = decision.sole_modifier;
      entry.new_home = decision.new_home;
      if (entry.new_home != home) stats_.inc_home_migrations();
      depart.entries.push_back(entry);
    }
    depart.departure_vtime = latest;
  } else {
    // Interior node or leaf: forward one coalesced subtree arrival to the
    // parent, then wait for the departure to come back down this edge.
    std::vector<notice::NoticeBlock> blocks;
    blocks.reserve(subtree_notices.size());
    for (auto& [modifier, pages] : subtree_notices) {
      blocks.push_back({modifier, std::move(pages)});
    }
    BarrierArriveMsg arrive;
    arrive.epoch = epoch_;
    arrive.notice_stream = notice::pack_notices(blocks);

    VirtualUs stamp = latest;
    if (clock != nullptr) {
      clock->add(config_.net.send_overhead_us);
      stamp = clock->now();
    }
    const NodeId parent = topo_.parent();
    const auto payload = codec<BarrierArriveMsg>::encode(std::move(arrive));
    post(parent, kTagBarrierArrive, payload, stamp);
    await_reply<BarrierDepartMsg>(
        kTagBarrierDepart,
        [&] {
          return missing("barrier departure",
                         "parent node " + std::to_string(parent), epoch_);
        },
        [&](BarrierDepartMsg& got, const net::Message& msg) {
          const auto action = rules::classify_barrier_depart(got.epoch, epoch_);
          if (action == rules::DepartAction::kIgnoreStale) return false;
          PARADE_CHECK_MSG(action == rules::DepartAction::kProcess,
                           "barrier departure from a future epoch");
          // The barrier's own CPU is discarded, not charged.
          merge_reply(msg, /*charge_cpu=*/false);
          depart = std::move(got);
          return true;
        },
        // Either our arrival or the parent's departure was lost; resending
        // the arrival recovers both (every gather node re-answers closed
        // epochs on its child edges).
        [&] { repost(parent, kTagBarrierArrive, payload, stamp); });
  }

  // Scatter the departure to our direct children, then apply it locally.
  if (!children.empty()) {
    forward_departure(depart, children,
                      clock != nullptr ? clock->now()
                                       : depart.departure_vtime);
    if (clock != nullptr) {
      clock->add(static_cast<double>(children.size()) *
                 config_.net.send_overhead_us);
    }
  }
  process_departure(depart);

  stats_.inc_barriers();
  obs::Registry::instance().close_epoch(rank(), epoch_);
  ++epoch_;
  if (clock != nullptr) clock->discard_cpu();
}

std::unordered_map<NodeId, std::pair<BarrierArriveMsg, VirtualUs>>
DsmNode::gather_children(const std::vector<NodeId>& children) {
  if (children.empty()) return {};
  // The comm thread records arrivals (handle_barrier_arrive); wait for the
  // current epoch's set to complete. Children drive retransmission, so the
  // budget here only bounds how long a missing child is tolerated.
  std::unique_lock lock(barrier_gather_.mutex);
  auto& arrived = barrier_gather_.arrivals[epoch_];  // node-stable reference
  const auto what = [&] {  // under the lock, and only on the way to abort
    std::string who;
    for (const NodeId child : children) {
      if (arrived.count(child) > 0) continue;
      who += (who.empty() ? "child node " : ", node ") + std::to_string(child);
    }
    return missing("barrier arrival", who, epoch_);
  };
  net::RetryBudget budget{config_.retry, rank(), kRetryExhausted};
  const auto done = [&] {
    return arrived.size() == children.size() || barrier_gather_.closed;
  };
  while (!barrier_gather_.cv.wait_for(lock, config_.retry.timeout(), done)) {
    const Status s = budget.spend(what);
    PARADE_CHECK_MSG(s.is_ok(), s.message());
  }
  PARADE_CHECK_MSG(arrived.size() == children.size(),
                   "channel closed: " + what());
  auto gathered = std::move(arrived);
  barrier_gather_.arrivals.erase(epoch_);
  return gathered;
}

void DsmNode::forward_departure(const BarrierDepartMsg& depart,
                                const std::vector<NodeId>& children,
                                VirtualUs base_vtime) {
  // Re-stamp at this hop: children merge our forwarding time (plus their own
  // transfer), not the root's, so a deep tree pays per-level latency
  // honestly. Send overheads serialize on this node's clock.
  const VirtualUs stamp =
      base_vtime +
      static_cast<double>(children.size()) * config_.net.send_overhead_us;
  BarrierDepartMsg down = depart;
  down.departure_vtime = stamp;
  const auto payload = codec<BarrierDepartMsg>::encode(std::move(down));
  {
    // Cache before sending: a child's retransmitted arrival for this epoch
    // may race in on the comm thread the moment the first departure is out.
    std::lock_guard lock(barrier_gather_.mutex);
    barrier_gather_.last_depart_epoch = depart.epoch;
    barrier_gather_.last_depart_payload = payload;
    barrier_gather_.last_depart_vtime = stamp;
  }
  for (const NodeId child : children) {
    post(child, kTagBarrierDepart, payload, stamp);
  }
}

void DsmNode::handle_barrier_arrive(const net::Message& message) {
  BarrierArriveMsg arrive;
  if (!decode(message, arrive)) return;
  // Semantic validation of the coalesced notice stream happens here, off the
  // wire, so the barrier caller can trust every recorded arrival (its own
  // re-unpack is a hard check, not a soft-fail).
  if (!notice::try_unpack_notices(arrive.notice_stream, size(),
                                  static_cast<PageId>(config_.num_pages()))
           .has_value()) {
    PLOG_WARN("dropping barrier arrival with malformed notice stream");
    return;
  }
  const VirtualUs contribution =
      message.header.vtime + config_.net.transfer_us(message.payload.size());
  std::lock_guard lock(barrier_gather_.mutex);
  switch (rules::classify_barrier_arrival(arrive.epoch,
                                          barrier_gather_.last_depart_epoch)) {
    case rules::ArrivalAction::kReAnswerClosedEpoch:
      // The child never saw our departure and is retransmitting its
      // arrival. A child lags its parent by at most one epoch, so the
      // cached payload always matches.
      repost(message.header.src, kTagBarrierDepart,
             barrier_gather_.last_depart_payload,
             barrier_gather_.last_depart_vtime);
      return;
    case rules::ArrivalAction::kIgnoreStale:
      return;
    case rules::ArrivalAction::kRecord:
      // barrier.epoch: a recordable arrival is always for the one epoch the
      // last departure on this edge left open (children lag or lead by at
      // most one).
      check_invariant(
          rules::arrival_epoch_plausible(arrive.epoch,
                                         barrier_gather_.last_depart_epoch),
          "barrier.epoch", /*page=*/-1);
      break;
  }
  // Duplicate arrivals for an open epoch simply overwrite their slot.
  barrier_gather_.arrivals[arrive.epoch][message.header.src] = {
      std::move(arrive), contribution};
  barrier_gather_.cv.notify_all();
}

void DsmNode::process_departure(const BarrierDepartMsg& msg) {
  std::vector<PageId> invalidated;
  for (const DepartEntry& e : msg.entries) {
    PageEntry& entry = pages_->entry(e.page);
    std::lock_guard lock(entry.mutex);
    const NodeId old_home = entry.home;
    entry.home = e.new_home;
    // The home records copies that survive this departure elsewhere; it
    // never clears the flag here (see rules::remote_copy_after_departure).
    entry.remote_copy = rules::remote_copy_after_departure(
        entry.remote_copy, rank(), e.new_home, old_home, e.sole_modifier);

    // Keep the copy when it is provably current: we are the new home, we
    // were the old home (all diffs merged into us), or we were the interval's
    // only modifier.
    if (rules::keep_copy_on_departure(rank(), e.new_home, old_home,
                                      e.sole_modifier)) {
      continue;
    }
    if (rules::invalidate_applies(entry.state)) {
      entry.twin = false;
      set_state(entry, e.page, PageState::kInvalid);
      invalidated.push_back(e.page);
      stats_.inc_invalidations();
    }
  }
  // The barrier caller is this node's only running application thread, so
  // nothing can touch an invalidated page before its run is protected.
  protect_runs(std::move(invalidated), PROT_NONE);
}

// ---------------------------------------------------------------------------
// DSM locks (conventional-SDSM path)

void DsmNode::lock_acquire(int lock_id) {
  PARADE_CHECK_MSG(lock_id >= 0 && lock_id < kMaxDsmLocks, "lock id range");
  // Serialize this node's threads on the lock before talking to the manager;
  // released in lock_release (see lock_gate_).
  lock_gate_[static_cast<std::size_t>(lock_id)].lock();
  stats_.inc_lock_acquires();
  const NodeId home = static_cast<NodeId>(lock_id % size());
  const VirtualUs stamp = send_stamp();
  const std::uint32_t seq = next_seq();
  const auto payload = codec<LockAcquireMsg>::encode({lock_id, seq});
  LockGrantMsg grant;
  {
    // Root span of the lock trace: the manager's lock_serve span and the
    // grant's delivery link back to it. The histogram measures
    // request-to-grant latency, retries included.
    obs::ScopedSpan span(obs::TraceKind::kLock, rank(), lock_id);
    obs::ScopedHistTimer grant_scope(lock_grant_hist_);
    post(home, kTagLockAcquire, payload, stamp);
    await_reply<LockGrantMsg>(
        kTagLockGrantBase + lock_id,
        [&] {
          return missing("grant of lock " + std::to_string(lock_id),
                         "manager node " + std::to_string(home), epoch_);
        },
        [&](LockGrantMsg& got, const net::Message& msg) {
          // Duplicate grant of an older acquire: drop and keep waiting.
          if (!rules::accept_response_seq(seq, got.seq)) return false;
          grant = std::move(got);
          merge_reply(msg);
          return true;
        },
        [&] { repost(home, kTagLockAcquire, payload, stamp); });
  }

  // Lazy-release consistency, conservatively: drop every cached copy of a
  // page another node modified under this lock (rules::lock_notice_action).
  // A DIRTY copy first sends this node's own writes home, and an in-flight
  // fetch lands first; both are looked at again. Another thread of this
  // node may re-dirty such a page meanwhile, so repeat until none is left.
  for (;;) {
    std::vector<PageId> again;
    for (const WriteNotice& notice : grant.notices) {
      PageEntry& entry = pages_->entry(notice.page);
      std::unique_lock lock(entry.mutex);
      switch (rules::lock_notice_action(entry.state, entry.home, rank(),
                                        notice.modifier)) {
        case rules::NoticeAction::kKeep:
          break;
        case rules::NoticeAction::kInvalidate:
          protect(notice.page, PROT_NONE);
          set_state(entry, notice.page, PageState::kInvalid);
          stats_.inc_invalidations();
          break;
        case rules::NoticeAction::kAwaitFetch:
          entry.cv.wait(lock,
                        [&] { return !rules::fetch_in_flight(entry.state); });
          again.push_back(notice.page);
          break;
        case rules::NoticeAction::kFlushFirst:
          again.push_back(notice.page);
          break;
      }
    }
    if (again.empty()) break;
    flush_pages(again, /*at_barrier=*/false);  // skips pages not DIRTY
  }
}

void DsmNode::lock_release(int lock_id) {
  PARADE_CHECK_MSG(lock_id >= 0 && lock_id < kMaxDsmLocks, "lock id range");
  // Flush and notice every page this node wrote in the open barrier
  // interval, not only those the critical section faulted on: a store to a
  // page that was already DIRTY (written outside the lock, maybe by another
  // thread) takes no fault, and another thread's flush may have sent such a
  // page already. flush_pages skips the pages no longer DIRTY.
  std::vector<PageId> pages;
  {
    std::lock_guard lock(dirty_mutex_);
    pages.assign(interval_dirty_.begin(), interval_dirty_.end());
  }
  std::sort(pages.begin(), pages.end());
  flush_pages(pages, /*at_barrier=*/false);

  const NodeId home = static_cast<NodeId>(lock_id % size());
  const VirtualUs stamp = send_stamp();
  const std::uint32_t seq = next_seq();
  const auto payload =
      codec<LockReleaseMsg>::encode({lock_id, std::move(pages), seq});
  // Root span of the release trace (the manager-side hand-off links here).
  obs::ScopedSpan span(obs::TraceKind::kLock, rank(), lock_id);
  post(home, kTagLockRelease, payload, stamp);

  // Release is one-way, as in the paper, where the channel cannot lose it:
  // per-link FIFO delivers it before this node's next acquire, which is
  // posted only after the gate opens. A lossy channel could strand the lock,
  // so there the manager acks and the release is retransmitted until it
  // does. The ack is a reliability artifact, not part of the HLRC cost
  // model, so its vtime is not merged.
  if (channel_.lossy()) {
    await_reply<LockReleaseAckMsg>(
        kTagLockReleaseAckBase + lock_id,
        [&] {
          return missing("release ack of lock " + std::to_string(lock_id),
                         "manager node " + std::to_string(home), epoch_);
        },
        // Duplicate ack of an older release: drop and keep waiting.
        [&](const LockReleaseAckMsg& acked, const net::Message&) {
          return rules::accept_response_seq(seq, acked.seq);
        },
        [&] { repost(home, kTagLockRelease, payload, stamp); });
  }
  lock_gate_[static_cast<std::size_t>(lock_id)].unlock();
}

// ---------------------------------------------------------------------------
// Communication thread

void DsmNode::comm_loop() {
  logging::set_thread_node_tag(rank());
  bool running = true;
  while (running) {
    auto msg = channel_.inbox().recv_match(
        [](const net::MessageHeader& h) { return comm_thread_tag(h.tag); });
    if (!msg.has_value()) break;  // mailbox closed

    // Barrier arrivals bypass the comm clock: the gathering barrier caller
    // accounts for them itself (one recv_overhead per direct child), same
    // as when it received the arrivals directly.
    if (msg->header.tag == kTagBarrierArrive) {
      handle_barrier_arrive(*msg);
      continue;
    }

    comm_clock_.merge(msg->header.vtime +
                      config_.net.transfer_us(msg->payload.size()));
    comm_clock_.add(config_.net.recv_overhead_us);
    comm_ledger_.charge(config_.net.recv_overhead_us);

    switch (msg->header.tag) {
      case kTagShutdown:
        running = false;
        break;
      case kTagPageRequest:
        serve_page_request(*msg);
        break;
      case kTagPageReply:
        install_page(*msg);
        break;
      case kTagDiff:
        apply_incoming_diff(*msg);
        break;
      case kTagLockAcquire:
        lock_manager_acquire(*msg);
        break;
      case kTagLockRelease:
        lock_manager_release(*msg);
        break;
      default:
        PLOG_WARN("comm thread ignoring tag " << msg->header.tag);
    }
  }
  // No more arrivals will be gathered; wake a barrier caller blocked in
  // gather_children so it fails loudly instead of hanging.
  {
    std::lock_guard lock(barrier_gather_.mutex);
    barrier_gather_.closed = true;
  }
  barrier_gather_.cv.notify_all();
}

void DsmNode::serve_page_request(const net::Message& message) {
  PageRequestMsg request;
  if (!decode(message, request)) return;
  // Child of the requester's page_fault span (context off the wire); the
  // reply posted below inherits this span, closing the causal loop.
  obs::ScopedSpan span(
      obs::TraceKind::kPageServe, rank(), static_cast<Tag>(request.page),
      obs::SpanContext{message.header.trace_id, message.header.span_id});
  stats_.inc_page_serves();
  comm_clock_.add(config_.net.page_service_us + config_.net.send_overhead_us);
  comm_ledger_.charge(config_.net.page_service_us +
                      config_.net.send_overhead_us);

  // The frame is encoded from the sys view straight into the wire buffer
  // (codec<PageReplyMsg> layout; dsm_unit_test pins it against the span
  // decoder), with no staging reply vector.
  WireBuffer buffer;
  buffer.put(request.page);
  buffer.put(request.seq);
  {
    // The serving copy is read through the system view; the home invariant
    // (see DESIGN.md) guarantees it is current.
    PageEntry& entry = pages_->entry(request.page);
    std::lock_guard lock(entry.mutex);
    // home.holds_copy: a node that believes it is home must hold page data.
    // (A retransmitted request can land after migration moved the home
    // away; the requester's seq gate discards the reply, so only the home
    // case is checkable here.)
    if (entry.home == rank()) {
      check_invariant(entry.state == PageState::kReadOnly ||
                          entry.state == PageState::kDirty,
                      "home.holds_copy", request.page);
      check_invariant(
          rules::exclusive_unshared(entry.exclusive, entry.remote_copy),
          "home.exclusive_unshared", request.page);
      if (entry.exclusive) {
        // The copy served below carries every untracked home write. Write-
        // protect first, so each later home write faults and is noticed.
        protect(request.page, PROT_READ);
        set_state(entry, request.page, PageState::kReadOnly);
        entry.exclusive = false;
      }
      entry.remote_copy = true;
    }
    buffer.put(static_cast<std::uint32_t>(config_.page_bytes));
    buffer.put_bytes(sys_page(request.page), config_.page_bytes);
  }
  post(message.header.src, kTagPageReply, std::move(buffer).take(),
       comm_clock_.now());
}

void DsmNode::install_page(const net::Message& message) {
  auto reply_r = PageReplyView::from(message.span());
  if (!reply_r.is_ok() || reply_r.value().data.size() != config_.page_bytes) {
    PLOG_WARN("dropping malformed page reply");
    return;
  }
  const PageReplyView reply = reply_r.value();
  PageEntry& entry = pages_->entry(reply.page);
  std::lock_guard lock(entry.mutex);
  // A reply for a page no longer being fetched, or for a superseded fetch,
  // is a retransmission artifact (the original served both); drop it rather
  // than overwrite state another path owns.
  if (!rules::accept_page_reply(entry.state, entry.fetch_seq, reply.seq)) {
    return;
  }
  // Atomic page update (§5.1): write through the always-writable system view
  // first, only then open the application view. The copy reads directly out
  // of the delivered buffer (span view) — no intermediate reply vector on
  // either side of the wire.
  std::memcpy(sys_page(reply.page), reply.data.data(), config_.page_bytes);
  protect(reply.page, PROT_READ);
  entry.ready_vtime = message.header.vtime +
                      config_.net.transfer_us(message.payload.size()) +
                      config_.net.recv_overhead_us;
  set_state(entry, reply.page, PageState::kReadOnly);
  entry.cv.notify_all();
}

void DsmNode::apply_incoming_diff(const net::Message& message) {
  auto diff_r = DiffView::from(message.span());
  if (!diff_r.is_ok()) {
    PLOG_WARN("dropping malformed diff: " << diff_r.status().to_string());
    return;
  }
  const DiffView diff = diff_r.value();
  // A retransmitted diff whose original already merged must not re-apply (the
  // page may have moved on since), but the sender is still waiting: re-ack.
  if (rules::accept_diff(diff_seen_, message.header.src, diff.seq)) {
    stats_.inc_diffs_applied();
    comm_clock_.add(config_.net.page_service_us);
    comm_ledger_.charge(config_.net.page_service_us);
    PageEntry& entry = pages_->entry(diff.page);
    std::lock_guard lock(entry.mutex);
    const bool ok =
        apply_diff(reinterpret_cast<std::uint8_t*>(sys_page(diff.page)),
                   config_.page_bytes, diff.diff.data(), diff.diff.size());
    PARADE_CHECK_MSG(ok, "malformed diff");
  }
  post(message.header.src, kTagDiffAck,
       codec<DiffAckMsg>::encode({diff.page, diff.seq}), comm_clock_.now());
}

void DsmNode::send_grant(NodeId to, std::int32_t lock_id) {
  ManagedLock& managed = managed_locks_[lock_id];
  LockGrantMsg grant;
  grant.lock_id = lock_id;
  grant.seq = managed.holder_seq;  // ties the grant to the winning acquire
  grant.notices.reserve(managed.notices.size());
  for (const auto& [page, modifier] : managed.notices) {
    grant.notices.push_back(WriteNotice{page, modifier});
  }
  if (to != rank()) stats_.inc_lock_remote_grants();
  comm_clock_.add(config_.net.send_overhead_us);
  comm_ledger_.charge(config_.net.send_overhead_us);
  post(to, kTagLockGrantBase + grant.lock_id,
       codec<LockGrantMsg>::encode(std::move(grant)), comm_clock_.now());
}

void DsmNode::lock_manager_acquire(const net::Message& message) {
  LockAcquireMsg request;
  if (!decode(message, request)) return;
  // Child of the requester's lock span; a grant sent here inherits it.
  obs::ScopedSpan span(
      obs::TraceKind::kLockServe, rank(), request.lock_id,
      obs::SpanContext{message.header.trace_id, message.header.span_id});
  ManagedLock& managed = managed_locks_[request.lock_id];
  if (managed.acquire_seen.seen_or_insert(
          net::seq_key(message.header.src, request.seq))) {
    // Retransmitted acquire. Re-grant only when this exact request currently
    // holds the lock (its grant was lost); otherwise it is still queued or
    // was already served and released.
    if (managed.held && managed.holder == message.header.src &&
        managed.holder_seq == request.seq) {
      stats_.inc_retries();
      send_grant(message.header.src, request.lock_id);
    }
    return;
  }
  if (!managed.held) {
    managed.held = true;
    managed.holder = message.header.src;
    managed.holder_seq = request.seq;
    send_grant(message.header.src, request.lock_id);
  } else {
    managed.waiters.emplace_back(message.header.src, request.seq);
  }
}

void DsmNode::lock_manager_release(const net::Message& message) {
  LockReleaseMsg release;
  if (!decode(message, release)) return;
  // Child of the releaser's lock span; a handed-off grant inherits it, so a
  // waiter's grant traces back to the release that unblocked it.
  obs::ScopedSpan span(
      obs::TraceKind::kLockServe, rank(), release.lock_id,
      obs::SpanContext{message.header.trace_id, message.header.span_id});
  ManagedLock& managed = managed_locks_[release.lock_id];
  const bool duplicate = managed.release_seen.seen_or_insert(
      net::seq_key(message.header.src, release.seq));
  if (!duplicate && managed.held && managed.holder == message.header.src) {
    for (const PageId page : release.dirtied_pages) {
      managed.notices[page] = message.header.src;
    }
    if (!managed.waiters.empty()) {
      const auto [next, next_seq] = managed.waiters.front();
      managed.waiters.erase(managed.waiters.begin());
      managed.holder = next;
      managed.holder_seq = next_seq;
      send_grant(next, release.lock_id);
    } else {
      managed.held = false;
      managed.holder = kAnyNode;
    }
  }
  // On a lossy channel always ack, duplicates too — the releaser blocks
  // until it hears one. The ack is pure reliability traffic, so it carries
  // the comm clock without extra cost.
  if (channel_.lossy()) {
    post(message.header.src, kTagLockReleaseAckBase + release.lock_id,
         codec<LockReleaseAckMsg>::encode({release.lock_id, release.seq}),
         comm_clock_.now());
  }
}

}  // namespace parade::dsm

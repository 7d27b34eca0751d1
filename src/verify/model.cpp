#include "verify/model.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace parade::verify {

namespace {

// PageId and NodeId are both int32; indices stay below 8 in model scenarios.
constexpr std::uint8_t bit(std::int32_t index) {
  return static_cast<std::uint8_t>(1u << index);
}

constexpr bool holds_copy(PageState state) {
  return state == PageState::kReadOnly || state == PageState::kDirty;
}

constexpr bool fetching(PageState state) {
  return state == PageState::kTransient || state == PageState::kBlocked;
}

/// Adapter giving rules::accept_diff its SeqWindow contract on top of the
/// model's canonical std::set.
struct SetWindow {
  std::set<std::uint64_t>& seen;
  bool seen_or_insert(std::uint64_t key) { return !seen.insert(key).second; }
};

/// Deterministic byte serialization for state hashing.
struct ByteSink {
  std::string bytes;
  void u8(std::uint8_t v) { bytes.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v & 0xff));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Names.

const char* to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kPageRequest: return "page-request";
    case MsgKind::kPageReply: return "page-reply";
    case MsgKind::kDiff: return "diff";
    case MsgKind::kDiffAck: return "diff-ack";
    case MsgKind::kBarrierArrive: return "barrier-arrive";
    case MsgKind::kBarrierDepart: return "barrier-depart";
  }
  return "?";
}

std::optional<MsgKind> msg_kind_from_name(const std::string& name) {
  for (MsgKind k :
       {MsgKind::kPageRequest, MsgKind::kPageReply, MsgKind::kDiff,
        MsgKind::kDiffAck, MsgKind::kBarrierArrive, MsgKind::kBarrierDepart}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

const char* to_string(NodePhase phase) {
  switch (phase) {
    case NodePhase::kComputing: return "computing";
    case NodePhase::kFlushing: return "flushing";
    case NodePhase::kArrived: return "arrived";
    case NodePhase::kDone: return "done";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Action trace text.

std::string to_string(const Action& action) {
  std::ostringstream os;
  switch (action.kind) {
    case ActionKind::kThreadStep:
      os << "step node=" << action.node << " thread=" << action.thread;
      break;
    case ActionKind::kDeliver:
    case ActionKind::kDrop:
    case ActionKind::kDup:
      os << (action.kind == ActionKind::kDeliver
                 ? "deliver"
                 : action.kind == ActionKind::kDrop ? "drop" : "dup")
         << ' ' << to_string(action.mkind) << " src=" << action.src
         << " dst=" << action.dst << " page=" << action.page
         << " seq=" << action.seq << " epoch=" << int(action.epoch)
         << " base=" << action.mbase;
      break;
    case ActionKind::kResendFetch:
      os << "resend-fetch node=" << action.node << " page=" << action.page;
      break;
    case ActionKind::kResendDiff:
      os << "resend-diff node=" << action.node << " seq=" << action.seq;
      break;
    case ActionKind::kResendArrive:
      os << "resend-arrive node=" << action.node;
      break;
    case ActionKind::kMasterDepart:
      os << "depart";
      break;
  }
  return os.str();
}

std::optional<Action> parse_action(const std::string& line) {
  std::istringstream is(line);
  std::string verb;
  if (!(is >> verb)) return std::nullopt;

  Action action;
  auto fields = [&is]() {
    std::map<std::string, long> kv;
    std::string tok;
    while (is >> tok) {
      auto eq = tok.find('=');
      if (eq == std::string::npos) return std::optional<decltype(kv)>{};
      kv[tok.substr(0, eq)] = std::stol(tok.substr(eq + 1));
    }
    return std::optional{kv};
  };

  if (verb == "step") {
    action.kind = ActionKind::kThreadStep;
    auto kv = fields();
    if (!kv || !kv->count("node") || !kv->count("thread")) return std::nullopt;
    action.node = static_cast<NodeId>((*kv)["node"]);
    action.thread = static_cast<int>((*kv)["thread"]);
    return action;
  }
  if (verb == "depart") {
    action.kind = ActionKind::kMasterDepart;
    return action;
  }
  if (verb == "resend-fetch" || verb == "resend-diff" ||
      verb == "resend-arrive") {
    action.kind = verb == "resend-fetch"
                      ? ActionKind::kResendFetch
                      : verb == "resend-diff" ? ActionKind::kResendDiff
                                              : ActionKind::kResendArrive;
    auto kv = fields();
    if (!kv || !kv->count("node")) return std::nullopt;
    action.node = static_cast<NodeId>((*kv)["node"]);
    if (action.kind == ActionKind::kResendFetch) {
      if (!kv->count("page")) return std::nullopt;
      action.page = static_cast<PageId>((*kv)["page"]);
    } else if (action.kind == ActionKind::kResendDiff) {
      if (!kv->count("seq")) return std::nullopt;
      action.seq = static_cast<std::uint16_t>((*kv)["seq"]);
    }
    return action;
  }
  if (verb == "deliver" || verb == "drop" || verb == "dup") {
    action.kind = verb == "deliver" ? ActionKind::kDeliver
                                    : verb == "drop" ? ActionKind::kDrop
                                                     : ActionKind::kDup;
    std::string kind_name;
    if (!(is >> kind_name)) return std::nullopt;
    auto mkind = msg_kind_from_name(kind_name);
    if (!mkind) return std::nullopt;
    action.mkind = *mkind;
    auto kv = fields();
    if (!kv || !kv->count("src") || !kv->count("dst")) return std::nullopt;
    action.src = static_cast<NodeId>((*kv)["src"]);
    action.dst = static_cast<NodeId>((*kv)["dst"]);
    if (kv->count("page")) action.page = static_cast<PageId>((*kv)["page"]);
    if (kv->count("seq")) action.seq = static_cast<std::uint16_t>((*kv)["seq"]);
    if (kv->count("epoch")) {
      action.epoch = static_cast<std::uint8_t>((*kv)["epoch"]);
    }
    if (kv->count("base")) {
      action.mbase = static_cast<std::uint16_t>((*kv)["base"]);
    }
    return action;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Model basics.

Model::Model(Scenario scenario, rules::Mutation mutation)
    : scenario_(std::move(scenario)), mutation_(mutation) {}

State Model::initial() const {
  State state;
  state.nodes.resize(scenario_.nodes);
  for (int n = 0; n < scenario_.nodes; ++n) {
    NodeM& nm = state.nodes[n];
    nm.pages.resize(scenario_.pages);
    for (PageId p = 0; p < static_cast<PageId>(scenario_.pages); ++p) {
      PageView& v = nm.pages[p];
      // The initial directory placement mirrors DsmNode::start(): node 0
      // owns everything, or each node seeds its own shard; the home starts
      // with an installed copy, everyone else faults in on first touch.
      v.home = rules::default_home(p, scenario_.nodes, scenario_.sharded_homes);
      v.state = n == v.home ? PageState::kReadOnly : PageState::kInvalid;
    }
    nm.threads.resize(scenario_.programs[n].size());
  }
  state.stable_ver.assign(scenario_.pages, 0);
  state.wrote.assign(scenario_.pages, 0);
  state.last_wrote.assign(scenario_.pages, 0);
  state.drops_left = static_cast<std::uint8_t>(scenario_.drop_budget);
  state.dups_left = static_cast<std::uint8_t>(scenario_.dup_budget);
  return state;
}

bool Model::done(const State& state) const {
  return std::all_of(state.nodes.begin(), state.nodes.end(),
                     [](const NodeM& nm) {
                       return nm.phase == NodePhase::kDone;
                     });
}

bool Model::copy_current(const State& state, const PageView& view,
                         PageId page) const {
  if (view.base == state.stable_ver[page]) return true;
  const std::uint8_t need = state.last_wrote[page];
  return view.base + 1 == state.stable_ver[page] &&
         (view.contribs & need) == need;
}

void Model::normalize(const State& state, PageView& view, PageId page) const {
  if (view.base != state.stable_ver[page] &&
      copy_current(state, view, page)) {
    view.base = state.stable_ver[page];
    view.contribs = 0;
  }
}

void Model::send(State& state, Msg msg) const {
  // The modeled network holds at most two copies of any identical message:
  // enough to exhibit every duplicate/reorder behavior while keeping the
  // state space finite under retransmission loops.
  if (count_in_net(state, msg) >= 2) return;
  state.net.insert(std::upper_bound(state.net.begin(), state.net.end(), msg),
                   std::move(msg));
}

int Model::count_in_net(const State& state, const Msg& msg) const {
  return static_cast<int>(
      std::count_if(state.net.begin(), state.net.end(),
                    [&](const Msg& m) { return m.key() == msg.key(); }));
}

bool Model::inert(const State& state, const Msg& msg) const {
  // Mutations deliberately make stale messages dangerous (e.g. a superseded
  // reply that installs anyway); never collapse the space under them.
  if (mutation_ != rules::Mutation::kNone) return false;
  switch (msg.kind) {
    case MsgKind::kPageRequest:
    case MsgKind::kPageReply: {
      // A fetch exchange is dead once the initiator stopped fetching that
      // sequence number; fetch_seq never repeats.
      const NodeId reader =
          msg.kind == MsgKind::kPageRequest ? msg.src : msg.dst;
      const PageView& rv = state.nodes[reader].pages[msg.page];
      return !(fetching(rv.state) && rv.fetch_seq == msg.seq);
    }
    case MsgKind::kDiff: {
      // A duplicate diff only matters while its sender still awaits the
      // ack; next_seq never repeats.
      const NodeM& home = state.nodes[msg.dst];
      if (home.diff_seen.count(net::seq_key(msg.src, msg.seq)) == 0) {
        return false;
      }
      const NodeM& sender = state.nodes[msg.src];
      return std::none_of(
          sender.pending.begin(), sender.pending.end(),
          [&](const PendingDiff& d) { return d.seq == msg.seq; });
    }
    case MsgKind::kDiffAck: {
      const NodeM& sender = state.nodes[msg.dst];
      return std::none_of(
          sender.pending.begin(), sender.pending.end(),
          [&](const PendingDiff& d) { return d.seq == msg.seq; });
    }
    case MsgKind::kBarrierArrive:
      // Older than the last closed epoch: the master ignores it. An arrival
      // for the last closed epoch still triggers a departure re-answer.
      return state.nodes[msg.dst].last_depart_epoch >= 0 &&
             msg.epoch < state.nodes[msg.dst].last_depart_epoch;
    case MsgKind::kBarrierDepart:
      return msg.epoch < state.nodes[msg.dst].epoch;
  }
  return false;
}

void Model::gc_net(State& state) const {
  state.net.erase(std::remove_if(state.net.begin(), state.net.end(),
                                 [&](const Msg& m) {
                                   return inert(state, m);
                                 }),
                  state.net.end());
}

std::optional<Violation> Model::set_state(PageView& view, NodeId node,
                                          PageId page, PageState to) const {
  if (!rules::transition_allowed(view.state, to)) {
    std::ostringstream os;
    os << "node " << node << " page " << page << ": "
       << parade::dsm::to_string(view.state) << " -> "
       << parade::dsm::to_string(to);
    view.state = to;
    return Violation{"fig5.edge", os.str()};
  }
  view.state = to;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Enabled actions.

std::vector<Action> Model::enabled(const State& state) const {
  std::vector<Action> out;
  if (done(state)) return out;

  for (NodeId n = 0; n < static_cast<NodeId>(state.nodes.size()); ++n) {
    const NodeM& nm = state.nodes[n];
    if (nm.phase == NodePhase::kComputing) {
      for (int t = 0; t < static_cast<int>(nm.threads.size()); ++t) {
        const ThreadM& tm = nm.threads[t];
        if (!tm.in_barrier && tm.waiting_page < 0) {
          Action a;
          a.kind = ActionKind::kThreadStep;
          a.node = n;
          a.thread = t;
          out.push_back(a);
        }
      }
      // Fetch retransmission, enabled only when the exchange is stuck:
      // neither the request nor its reply is in flight.
      for (PageId p = 0; p < static_cast<PageId>(nm.pages.size()); ++p) {
        const PageView& v = nm.pages[p];
        if (!fetching(v.state)) continue;
        const bool parked = std::any_of(
            nm.threads.begin(), nm.threads.end(),
            [p](const ThreadM& tm) { return tm.waiting_page == p; });
        if (!parked) continue;
        const bool stuck = std::none_of(
            state.net.begin(), state.net.end(), [&](const Msg& m) {
              return m.page == p && m.seq == v.fetch_seq &&
                     ((m.kind == MsgKind::kPageRequest && m.src == n) ||
                      (m.kind == MsgKind::kPageReply && m.dst == n));
            });
        if (stuck) {
          Action a;
          a.kind = ActionKind::kResendFetch;
          a.node = n;
          a.page = p;
          out.push_back(a);
        }
      }
    }
    if (nm.phase == NodePhase::kFlushing) {
      for (const PendingDiff& d : nm.pending) {
        const bool stuck = std::none_of(
            state.net.begin(), state.net.end(), [&](const Msg& m) {
              return m.seq == d.seq &&
                     ((m.kind == MsgKind::kDiff && m.src == n) ||
                      (m.kind == MsgKind::kDiffAck && m.dst == n));
            });
        if (stuck) {
          Action a;
          a.kind = ActionKind::kResendDiff;
          a.node = n;
          a.seq = d.seq;
          out.push_back(a);
        }
      }
    }
    // Arrival retransmission up one tree edge: enabled only for a node whose
    // whole subtree has arrived (a child that lags retransmits on its own
    // edge) but whose parent shows no record of it, with neither the arrival
    // nor the departure in flight.
    const Topology topo = topo_of(n);
    if (nm.phase == NodePhase::kArrived && !topo.is_root() &&
        static_cast<int>(nm.arrivals.size()) == topo.num_children()) {
      const NodeId parent = topo.parent();
      const bool recorded = state.nodes[parent].arrivals.count(n) != 0;
      const bool stuck =
          !recorded &&
          std::none_of(state.net.begin(), state.net.end(), [&](const Msg& m) {
            return m.epoch == nm.epoch &&
                   ((m.kind == MsgKind::kBarrierArrive && m.src == n) ||
                    (m.kind == MsgKind::kBarrierDepart && m.dst == n));
          });
      if (stuck) {
        Action a;
        a.kind = ActionKind::kResendArrive;
        a.node = n;
        out.push_back(a);
      }
    }
  }

  const NodeM& master = state.nodes[0];
  if (master.phase == NodePhase::kArrived &&
      static_cast<int>(master.arrivals.size()) == topo_of(0).num_children()) {
    Action a;
    a.kind = ActionKind::kMasterDepart;
    out.push_back(a);
  }

  const Msg* prev = nullptr;
  for (const Msg& m : state.net) {
    if (prev != nullptr && prev->key() == m.key()) continue;
    prev = &m;
    Action a;
    a.kind = ActionKind::kDeliver;
    a.mkind = m.kind;
    a.src = m.src;
    a.dst = m.dst;
    a.page = m.page;
    a.seq = m.seq;
    a.epoch = m.epoch;
    a.mbase = m.base;
    out.push_back(a);
    if (state.drops_left > 0) {
      Action d = a;
      d.kind = ActionKind::kDrop;
      out.push_back(d);
    }
    if (state.dups_left > 0 && count_in_net(state, m) < 2) {
      Action d = a;
      d.kind = ActionKind::kDup;
      out.push_back(d);
    }
  }
  return out;
}

bool Model::applicable(const State& state, const Action& action) const {
  const std::vector<Action> acts = enabled(state);
  return std::find(acts.begin(), acts.end(), action) != acts.end();
}

// ---------------------------------------------------------------------------
// Transition application.

std::optional<Violation> Model::apply(State& state,
                                      const Action& action) const {
  auto violation = [&]() -> std::optional<Violation> {
    return apply_action(state, action);
  }();
  if (!violation) gc_net(state);
  return violation;
}

std::optional<Violation> Model::apply_action(State& state,
                                             const Action& action) const {
  switch (action.kind) {
    case ActionKind::kThreadStep:
      return thread_step(state, action.node, action.thread);
    case ActionKind::kMasterDepart:
      return master_depart(state);
    case ActionKind::kResendFetch: {
      const PageView& v = state.nodes[action.node].pages[action.page];
      Msg req;
      req.kind = MsgKind::kPageRequest;
      req.src = action.node;
      req.dst = v.home;
      req.page = action.page;
      req.seq = v.fetch_seq;
      send(state, std::move(req));
      return std::nullopt;
    }
    case ActionKind::kResendDiff: {
      const NodeM& nm = state.nodes[action.node];
      auto it = std::find_if(nm.pending.begin(), nm.pending.end(),
                             [&](const PendingDiff& d) {
                               return d.seq == action.seq;
                             });
      if (it == nm.pending.end()) return std::nullopt;
      Msg diff;
      diff.kind = MsgKind::kDiff;
      diff.src = action.node;
      diff.dst = it->dst;
      diff.page = it->page;
      diff.seq = it->seq;
      diff.base = it->base;
      diff.mask = it->contribs;
      send(state, std::move(diff));
      return std::nullopt;
    }
    case ActionKind::kResendArrive: {
      // Children's arrivals are kept until the departure, so the aggregated
      // message can be rebuilt bit-for-bit.
      send(state, build_arrive(state, action.node));
      return std::nullopt;
    }
    case ActionKind::kDeliver:
    case ActionKind::kDrop:
    case ActionKind::kDup: {
      auto it = std::find_if(state.net.begin(), state.net.end(),
                             [&](const Msg& m) {
                               return m.key() ==
                                      std::tie(action.mkind, action.src,
                                               action.dst, action.page,
                                               action.seq, action.epoch,
                                               action.mbase);
                             });
      if (it == state.net.end()) return std::nullopt;
      if (action.kind == ActionKind::kDup) {
        Msg copy = *it;
        state.dups_left -= 1;
        send(state, std::move(copy));
        return std::nullopt;
      }
      Msg msg = std::move(*it);
      state.net.erase(it);
      if (action.kind == ActionKind::kDrop) {
        state.drops_left -= 1;
        return std::nullopt;
      }
      return deliver(state, msg);
    }
  }
  return std::nullopt;
}

std::optional<Violation> Model::thread_step(State& state, NodeId node,
                                            int thread) const {
  NodeM& nm = state.nodes[node];
  ThreadM& tm = nm.threads[thread];
  const auto& per_interval = scenario_.programs[node][thread].ops;
  const std::vector<Op> empty;
  const std::vector<Op>& ops =
      static_cast<std::size_t>(nm.epoch) < per_interval.size()
          ? per_interval[nm.epoch]
          : empty;

  if (static_cast<std::size_t>(tm.pc) >= ops.size()) {
    tm.in_barrier = true;
    const bool all_in = std::all_of(
        nm.threads.begin(), nm.threads.end(),
        [](const ThreadM& t) { return t.in_barrier; });
    if (all_in) return start_flush(state, node);
    return std::nullopt;
  }

  const Op op = ops[tm.pc];
  PageView& v = nm.pages[op.page];
  switch (rules::fault_action(v.state, op.write, mutation_)) {
    case rules::FaultAction::kStartFetch: {
      if (auto viol = set_state(v, node, op.page, PageState::kTransient)) {
        return viol;
      }
      v.fetch_seq += 1;
      Msg req;
      req.kind = MsgKind::kPageRequest;
      req.src = node;
      req.dst = v.home;
      req.page = op.page;
      req.seq = v.fetch_seq;
      send(state, std::move(req));
      tm.waiting_page = static_cast<std::int8_t>(op.page);
      return std::nullopt;
    }
    case rules::FaultAction::kJoinWaiters: {
      auto viol = set_state(v, node, op.page, PageState::kBlocked);
      tm.waiting_page = static_cast<std::int8_t>(op.page);
      return viol;
    }
    case rules::FaultAction::kWaitForFetch:
      tm.waiting_page = static_cast<std::int8_t>(op.page);
      return std::nullopt;
    case rules::FaultAction::kUpgradeToDirty: {
      // rules::needs_twin(v.home, node) decides twin creation in the live
      // engine; the model's flush sends a diff exactly when it holds.
      if (auto viol = set_state(v, node, op.page, PageState::kDirty)) {
        return viol;
      }
      if (v.base != state.stable_ver[op.page]) {
        std::ostringstream os;
        os << "node " << node << " writes page " << op.page << " at base "
           << v.base << ", stable is " << state.stable_ver[op.page];
        return Violation{"write.stale_base", os.str()};
      }
      v.contribs |= bit(node);
      state.wrote[op.page] |= bit(node);
      nm.dirty |= bit(op.page);
      nm.interval_dirty |= bit(op.page);
      tm.pc += 1;
      return std::nullopt;
    }
    case rules::FaultAction::kDone:
      if (op.write) {
        if (v.base != state.stable_ver[op.page]) {
          std::ostringstream os;
          os << "node " << node << " writes page " << op.page << " at base "
             << v.base << ", stable is " << state.stable_ver[op.page];
          return Violation{"write.stale_base", os.str()};
        }
        v.contribs |= bit(node);
        state.wrote[op.page] |= bit(node);
      } else if (v.base != state.stable_ver[op.page]) {
        std::ostringstream os;
        os << "node " << node << " thread " << thread << " reads page "
           << op.page << " at base " << v.base << ", stable is "
           << state.stable_ver[op.page];
        return Violation{"read.stale", os.str()};
      }
      tm.pc += 1;
      return std::nullopt;
  }
  return std::nullopt;
}

std::optional<Violation> Model::start_flush(State& state, NodeId node) const {
  NodeM& nm = state.nodes[node];
  nm.phase = NodePhase::kFlushing;
  for (PageId p = 0; p < static_cast<PageId>(nm.pages.size()); ++p) {
    if ((nm.dirty & bit(p)) == 0) continue;
    PageView& v = nm.pages[p];
    if (v.home == node) {
      const rules::HomeFlush decision =
          rules::home_flush(v.remote_copy, /*at_barrier=*/true);
      v.remote_copy = decision.remote_copy;
      if (decision.keep_exclusive) {
        // No peer holds a copy: the page stays DIRTY and its writes go
        // unnoticed until a serve ends exclusivity.
        v.exclusive = true;
        nm.interval_dirty &= static_cast<std::uint8_t>(~bit(p));
        continue;
      }
    } else {
      nm.next_seq += 1;
      PendingDiff d;
      d.page = p;
      d.seq = nm.next_seq;
      d.base = v.base;
      d.contribs = v.contribs;
      d.dst = v.home;
      Msg diff;
      diff.kind = MsgKind::kDiff;
      diff.src = node;
      diff.dst = d.dst;
      diff.page = p;
      diff.seq = d.seq;
      diff.base = d.base;
      diff.mask = d.contribs;
      nm.pending.push_back(d);
      send(state, std::move(diff));
    }
    if (auto viol = set_state(v, node, p, PageState::kReadOnly)) return viol;
  }
  nm.dirty = 0;
  if (nm.pending.empty()) arrive(state, node);
  return std::nullopt;
}

void Model::arrive(State& state, NodeId node) const {
  state.nodes[node].phase = NodePhase::kArrived;
  maybe_forward_arrival(state, node);
}

std::vector<std::uint8_t> Model::subtree_notices(const State& state,
                                                 NodeId node) const {
  const NodeM& nm = state.nodes[node];
  std::vector<std::uint8_t> per_page(
      static_cast<std::size_t>(scenario_.pages), 0);
  for (PageId p = 0; p < static_cast<PageId>(scenario_.pages); ++p) {
    if ((nm.interval_dirty & bit(p)) != 0) per_page[p] |= bit(node);
  }
  for (const auto& [child, masks] : nm.arrivals) {
    for (PageId p = 0; p < static_cast<PageId>(scenario_.pages); ++p) {
      per_page[p] |= masks[p];
    }
  }
  return per_page;
}

Msg Model::build_arrive(const State& state, NodeId node) const {
  const NodeM& nm = state.nodes[node];
  Msg arr;
  arr.kind = MsgKind::kBarrierArrive;
  arr.src = node;
  arr.dst = topo_of(node).parent();
  arr.epoch = nm.epoch;
  const std::vector<std::uint8_t> per_page = subtree_notices(state, node);
  for (PageId p = 0; p < static_cast<PageId>(scenario_.pages); ++p) {
    if (per_page[p] == 0) continue;
    arr.mask |= bit(p);
    DepartEntryM e;
    e.page = p;
    e.modifiers = per_page[p];
    arr.entries.push_back(e);
  }
  return arr;
}

void Model::maybe_forward_arrival(State& state, NodeId node) const {
  NodeM& nm = state.nodes[node];
  if (nm.phase != NodePhase::kArrived) return;
  const Topology topo = topo_of(node);
  if (static_cast<int>(nm.arrivals.size()) < topo.num_children()) return;
  if (topo.is_root()) return;  // completion enables kMasterDepart instead
  send(state, build_arrive(state, node));
}

std::optional<Violation> Model::master_depart(State& state) const {
  NodeM& master = state.nodes[0];
  const std::uint8_t closed_epoch = master.epoch;

  // Expand the gathered per-page modifier masks into ascending node lists
  // (matches the live gather, whose std::map merge iterates ranks).
  const std::vector<std::uint8_t> per_page = subtree_notices(state, 0);
  std::vector<std::vector<NodeId>> modifiers(scenario_.pages);
  for (PageId p = 0; p < static_cast<PageId>(scenario_.pages); ++p) {
    for (NodeId n = 0; n < static_cast<NodeId>(scenario_.nodes); ++n) {
      if ((per_page[p] & bit(n)) != 0) modifiers[p].push_back(n);
    }
  }

  std::vector<DepartEntryM> entries;
  std::optional<Violation> viol;
  for (PageId p = 0; p < static_cast<PageId>(scenario_.pages); ++p) {
    std::uint8_t mask = 0;
    for (NodeId n : modifiers[p]) mask |= bit(n);
    // The interval's writers: the noticed ones plus an exclusive home, whose
    // writes carry no notice.
    const std::uint8_t written = mask | state.wrote[p];
    if (written == 0) continue;
    const NodeId cur_home = master.pages[p].home;
    const PageView& hv = state.nodes[cur_home].pages[p];
    // Invariant: by the time every node has arrived, every write of the
    // interval has been flushed into (and acked by) the pre-migration home
    // — nothing may be lost to the coming invalidations.
    if (!viol && (hv.base != state.stable_ver[p] ||
                  (hv.contribs & written) != written ||
                  !holds_copy(hv.state))) {
      std::ostringstream os;
      os << "page " << p << " home " << cur_home << " misses contributions "
         << int(written & ~hv.contribs) << " at barrier "
         << int(closed_epoch);
      viol = Violation{"diff.flushed", os.str()};
    }
    if (mask != 0) {
      const rules::HomeDecision decision = rules::choose_home(
          cur_home, modifiers[p], scenario_.home_migration, mutation_);
      DepartEntryM e;
      e.page = p;
      e.new_home = decision.new_home;
      e.sole_modifier = decision.sole_modifier;
      e.modifiers = mask;
      entries.push_back(e);
    }
    state.stable_ver[p] += 1;
    state.last_wrote[p] = written;
    state.wrote[p] = 0;
  }

  auto dviol = process_depart(state, 0, closed_epoch, entries);
  return viol ? viol : dviol;
}

std::optional<Violation> Model::process_depart(
    State& state, NodeId node, std::uint8_t closed_epoch,
    const std::vector<DepartEntryM>& entries) const {
  NodeM& nm = state.nodes[node];
  // Cache the departure before forwarding down each child edge: a
  // retransmitted child arrival for the just-closed epoch is re-answered
  // from this cache (the per-edge kReAnswerClosedEpoch path). Gathered
  // arrivals are consumed by this epoch.
  nm.last_depart_epoch = closed_epoch;
  nm.last_entries = entries;
  nm.arrivals.clear();
  for (NodeId child : topo_of(node).children()) {
    Msg dep;
    dep.kind = MsgKind::kBarrierDepart;
    dep.src = node;
    dep.dst = child;
    dep.epoch = closed_epoch;
    dep.entries = entries;
    send(state, std::move(dep));
  }
  std::optional<Violation> viol;
  for (const DepartEntryM& e : entries) {
    PageView& v = nm.pages[e.page];
    const NodeId old_home = v.home;
    v.home = e.new_home;
    v.remote_copy = rules::remote_copy_after_departure(
        v.remote_copy, node, e.new_home, old_home, e.sole_modifier, mutation_);
    const bool keep = rules::keep_copy_on_departure(
        node, e.new_home, old_home, e.sole_modifier, mutation_);
    if (!keep && rules::invalidate_applies(v.state)) {
      if (auto sviol = set_state(v, node, e.page, PageState::kInvalid);
          sviol && !viol) {
        viol = sviol;
      }
      v.base = 0;
      v.contribs = 0;
    }
  }
  // Copies that carry every write of the closed interval — kept copies and
  // the exclusive home's — are rebased to the new stable version;
  // incomplete copies (only reachable under rule mutations) stay behind and
  // trip the staleness checks when touched.
  for (PageId p = 0; p < static_cast<PageId>(nm.pages.size()); ++p) {
    normalize(state, nm.pages[p], p);
  }
  nm.interval_dirty = 0;
  nm.epoch = closed_epoch + 1;
  if (nm.epoch >= scenario_.intervals) {
    nm.phase = NodePhase::kDone;
  } else {
    nm.phase = NodePhase::kComputing;
    for (ThreadM& tm : nm.threads) {
      tm.pc = 0;
      tm.in_barrier = false;
      tm.waiting_page = -1;
    }
  }
  const bool all_crossed = std::all_of(
      state.nodes.begin(), state.nodes.end(), [&](const NodeM& other) {
        return other.epoch > closed_epoch;
      });
  if (all_crossed) {
    if (auto bviol = interval_boundary_checks(state, closed_epoch);
        bviol && !viol) {
      viol = bviol;
    }
  }
  return viol;
}

std::optional<Violation> Model::interval_boundary_checks(
    const State& state, std::uint8_t closed_epoch) const {
  for (PageId p = 0; p < static_cast<PageId>(scenario_.pages); ++p) {
    const NodeId home = state.nodes[0].pages[p].home;
    for (const NodeM& nm : state.nodes) {
      if (nm.pages[p].home != home) {
        std::ostringstream os;
        os << "page " << p << " after barrier " << int(closed_epoch)
           << ": homes disagree (" << home << " vs " << nm.pages[p].home
           << ")";
        return Violation{"home.agreement", os.str()};
      }
    }
    const PageView& hv = state.nodes[home].pages[p];
    if (!holds_copy(hv.state)) {
      std::ostringstream os;
      os << "page " << p << " home " << home << " holds no copy ("
         << parade::dsm::to_string(hv.state) << ") after barrier "
         << int(closed_epoch);
      return Violation{"home.holds_copy", os.str()};
    }
    if (hv.base != state.stable_ver[p]) {
      std::ostringstream os;
      os << "page " << p << " home " << home << " at base " << hv.base
         << ", stable is " << state.stable_ver[p] << " after barrier "
         << int(closed_epoch);
      return Violation{"home.current", os.str()};
    }
    if (!hv.exclusive) continue;
    for (NodeId n = 0; n < static_cast<NodeId>(scenario_.nodes); ++n) {
      if (n != home && holds_copy(state.nodes[n].pages[p].state)) {
        std::ostringstream os;
        os << "page " << p << " exclusive at home " << home << " while node "
           << n << " holds a copy after barrier " << int(closed_epoch);
        return Violation{"home.exclusive_unshared", os.str()};
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> Model::deliver(State& state, const Msg& msg) const {
  switch (msg.kind) {
    case MsgKind::kPageRequest: {
      NodeM& server = state.nodes[msg.dst];
      PageView& v = server.pages[msg.page];
      // Is the requester still waiting on this exact fetch? Replies to
      // superseded fetches are filtered by accept_page_reply anyway, so
      // stale requests are simply not answered (keeps the space small).
      const PageView& rv = state.nodes[msg.src].pages[msg.page];
      const bool live = fetching(rv.state) && rv.fetch_seq == msg.seq;
      normalize(state, v, msg.page);
      if (!holds_copy(v.state) || v.base != state.stable_ver[msg.page]) {
        if (!live) return std::nullopt;
        std::ostringstream os;
        os << "node " << msg.dst << " serves page " << msg.page << " to "
           << msg.src << " from "
           << (holds_copy(v.state) ? "a stale copy" : "no copy") << " (state "
           << parade::dsm::to_string(v.state) << ", base " << v.base
           << ", stable " << state.stable_ver[msg.page] << ")";
        return Violation{"home.serves_current", os.str()};
      }
      if (v.home == msg.dst) {
        if (!rules::exclusive_unshared(v.exclusive, v.remote_copy)) {
          std::ostringstream os;
          os << "node " << msg.dst << " page " << msg.page
             << " is exclusive with a remote copy";
          return Violation{"home.exclusive_unshared", os.str()};
        }
        // The served copy carries the exclusive home's unnoticed writes;
        // the downgrade makes its later writes fault and be noticed.
        if (v.exclusive) {
          if (auto viol =
                  set_state(v, msg.dst, msg.page, PageState::kReadOnly)) {
            return viol;
          }
          v.exclusive = false;
        }
        v.remote_copy = true;
      }
      Msg reply;
      reply.kind = MsgKind::kPageReply;
      reply.src = msg.dst;
      reply.dst = msg.src;
      reply.page = msg.page;
      reply.seq = msg.seq;
      reply.base = v.base;
      reply.mask = v.contribs;
      send(state, std::move(reply));
      return std::nullopt;
    }
    case MsgKind::kPageReply: {
      NodeM& nm = state.nodes[msg.dst];
      PageView& v = nm.pages[msg.page];
      if (!rules::accept_page_reply(v.state, v.fetch_seq, msg.seq,
                                    mutation_)) {
        return std::nullopt;  // retransmission artifact: dropped
      }
      auto viol = set_state(v, msg.dst, msg.page, PageState::kReadOnly);
      v.base = msg.base;
      v.contribs = msg.mask;
      for (ThreadM& tm : nm.threads) {
        if (tm.waiting_page == msg.page) tm.waiting_page = -1;
      }
      return viol;
    }
    case MsgKind::kDiff: {
      NodeM& nm = state.nodes[msg.dst];
      PageView& v = nm.pages[msg.page];
      // A next-interval diff can land before this node processed its own
      // departure; its kept copy is entitled to the same lazy rebase as a
      // served fetch.
      normalize(state, v, msg.page);
      const bool duplicate =
          nm.diff_seen.count(net::seq_key(msg.src, msg.seq)) != 0;
      SetWindow window{nm.diff_seen};
      const bool apply_diff =
          rules::accept_diff(window, msg.src, msg.seq, mutation_);
      std::optional<Violation> viol;
      if (apply_diff) {
        if (duplicate) {
          std::ostringstream os;
          os << "diff src=" << msg.src << " seq=" << msg.seq
             << " applied twice at node " << msg.dst;
          viol = Violation{"dedup.double_apply", os.str()};
        } else if (!holds_copy(v.state) ||
                   v.base != state.stable_ver[msg.page]) {
          std::ostringstream os;
          os << "diff src=" << msg.src << " seq=" << msg.seq
             << " merges into node " << msg.dst << " page " << msg.page
             << " (state " << parade::dsm::to_string(v.state) << ", base "
             << v.base << ", stable " << state.stable_ver[msg.page] << ")";
          viol = Violation{"diff.at_non_copy", os.str()};
        } else {
          v.contribs |= msg.mask;
        }
      }
      // Duplicates are re-acked — the sender is still waiting — but never
      // re-applied.
      Msg ack;
      ack.kind = MsgKind::kDiffAck;
      ack.src = msg.dst;
      ack.dst = msg.src;
      ack.page = msg.page;
      ack.seq = msg.seq;
      send(state, std::move(ack));
      return viol;
    }
    case MsgKind::kDiffAck: {
      NodeM& nm = state.nodes[msg.dst];
      auto it = std::find_if(nm.pending.begin(), nm.pending.end(),
                             [&](const PendingDiff& d) {
                               return d.seq == msg.seq;
                             });
      if (it != nm.pending.end()) nm.pending.erase(it);
      if (nm.phase == NodePhase::kFlushing && nm.pending.empty()) {
        arrive(state, msg.dst);
      }
      return std::nullopt;
    }
    case MsgKind::kBarrierArrive: {
      // The receiver is the sender's tree parent; it runs the same per-edge
      // classification whether it is the root or an interior gather node.
      NodeM& gather = state.nodes[msg.dst];
      const std::optional<Epoch> last =
          gather.last_depart_epoch >= 0
              ? std::optional<Epoch>(gather.last_depart_epoch)
              : std::nullopt;
      switch (rules::classify_barrier_arrival(msg.epoch, last)) {
        case rules::ArrivalAction::kRecord: {
          if (msg.epoch != gather.epoch) {
            std::ostringstream os;
            os << "arrival from node " << msg.src << " for epoch "
               << int(msg.epoch) << " while node " << msg.dst
               << " gathers epoch " << int(gather.epoch);
            return Violation{"barrier.epoch", os.str()};
          }
          std::vector<std::uint8_t> masks(
              static_cast<std::size_t>(scenario_.pages), 0);
          for (const DepartEntryM& e : msg.entries) {
            masks[static_cast<std::size_t>(e.page)] = e.modifiers;
          }
          gather.arrivals[msg.src] = std::move(masks);
          // This may have completed the subtree while the parent edge idles.
          maybe_forward_arrival(state, msg.dst);
          return std::nullopt;
        }
        case rules::ArrivalAction::kReAnswerClosedEpoch: {
          Msg dep;
          dep.kind = MsgKind::kBarrierDepart;
          dep.src = msg.dst;
          dep.dst = msg.src;
          dep.epoch = static_cast<std::uint8_t>(gather.last_depart_epoch);
          dep.entries = gather.last_entries;
          send(state, std::move(dep));
          return std::nullopt;
        }
        case rules::ArrivalAction::kIgnoreStale:
          return std::nullopt;
      }
      return std::nullopt;
    }
    case MsgKind::kBarrierDepart: {
      NodeM& nm = state.nodes[msg.dst];
      switch (rules::classify_barrier_depart(msg.epoch, nm.epoch)) {
        case rules::DepartAction::kIgnoreStale:
          return std::nullopt;
        case rules::DepartAction::kImpossibleFuture: {
          std::ostringstream os;
          os << "node " << msg.dst << " at epoch " << int(nm.epoch)
             << " got a departure for future epoch " << int(msg.epoch);
          return Violation{"barrier.epoch", os.str()};
        }
        case rules::DepartAction::kProcess:
          if (nm.phase != NodePhase::kArrived) {
            std::ostringstream os;
            os << "node " << msg.dst << " got a departure for epoch "
               << int(msg.epoch) << " while " << to_string(nm.phase);
            return Violation{"barrier.epoch", os.str()};
          }
          return process_depart(state, msg.dst, msg.epoch, msg.entries);
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Hashing.

std::string Model::encode(const State& state) const {
  ByteSink sink;
  for (const NodeM& nm : state.nodes) {
    for (const PageView& v : nm.pages) {
      sink.u8(static_cast<std::uint8_t>(v.state));
      sink.u8(static_cast<std::uint8_t>(v.home + 1));
      sink.u16(v.fetch_seq);
      sink.u16(v.base);
      sink.u8(v.contribs);
      sink.u8(static_cast<std::uint8_t>((v.remote_copy ? 1 : 0) |
                                        (v.exclusive ? 2 : 0)));
    }
    for (const ThreadM& tm : nm.threads) {
      sink.u8(tm.pc);
      sink.u8(static_cast<std::uint8_t>(tm.waiting_page + 1));
      sink.u8(tm.in_barrier ? 1 : 0);
    }
    sink.u8(static_cast<std::uint8_t>(nm.phase));
    sink.u8(nm.epoch);
    sink.u8(nm.dirty);
    sink.u8(nm.interval_dirty);
    sink.u16(nm.next_seq);
    sink.u8(static_cast<std::uint8_t>(nm.pending.size()));
    for (const PendingDiff& d : nm.pending) {
      sink.u8(static_cast<std::uint8_t>(d.page));
      sink.u16(d.seq);
      sink.u16(d.base);
      sink.u8(d.contribs);
      sink.u8(static_cast<std::uint8_t>(d.dst));
    }
    sink.u8(static_cast<std::uint8_t>(nm.diff_seen.size()));
    for (std::uint64_t key : nm.diff_seen) sink.u64(key);
    sink.u8(static_cast<std::uint8_t>(nm.arrivals.size()));
    for (const auto& [n, masks] : nm.arrivals) {
      sink.u8(static_cast<std::uint8_t>(n));
      for (std::uint8_t mask : masks) sink.u8(mask);
    }
    sink.u16(static_cast<std::uint16_t>(nm.last_depart_epoch + 1));
    sink.u8(static_cast<std::uint8_t>(nm.last_entries.size()));
    for (const DepartEntryM& e : nm.last_entries) {
      sink.u8(static_cast<std::uint8_t>(e.page));
      sink.u8(static_cast<std::uint8_t>(e.new_home + 1));
      sink.u8(static_cast<std::uint8_t>(e.sole_modifier + 1));
      sink.u8(e.modifiers);
    }
  }
  sink.u8(static_cast<std::uint8_t>(state.net.size()));
  for (const Msg& m : state.net) {
    sink.u8(static_cast<std::uint8_t>(m.kind));
    sink.u8(static_cast<std::uint8_t>(m.src));
    sink.u8(static_cast<std::uint8_t>(m.dst));
    sink.u8(static_cast<std::uint8_t>(m.page + 1));
    sink.u16(m.seq);
    sink.u16(m.base);
    sink.u8(m.epoch);
    sink.u8(m.mask);
    sink.u8(static_cast<std::uint8_t>(m.entries.size()));
    for (const DepartEntryM& e : m.entries) {
      sink.u8(static_cast<std::uint8_t>(e.page));
      sink.u8(static_cast<std::uint8_t>(e.new_home + 1));
      sink.u8(static_cast<std::uint8_t>(e.sole_modifier + 1));
      sink.u8(e.modifiers);
    }
  }
  for (std::uint16_t v : state.stable_ver) sink.u16(v);
  for (std::uint8_t v : state.wrote) sink.u8(v);
  for (std::uint8_t v : state.last_wrote) sink.u8(v);
  sink.u8(state.drops_left);
  sink.u8(state.dups_left);
  return std::move(sink.bytes);
}

// ---------------------------------------------------------------------------
// Standard scenarios.

namespace {

constexpr Op R(PageId p) { return Op{false, p}; }
constexpr Op W(PageId p) { return Op{true, p}; }

using Intervals = std::vector<std::vector<Op>>;

std::vector<Scenario> make_standard_scenarios() {
  std::vector<Scenario> out;

  {
    // Two reader threads on one node race a remote writer: exercises the
    // TRANSIENT/BLOCKED join path and departure invalidation of a cached
    // reader copy (keep-stale-copy shows up as a stale read in interval 1).
    Scenario s;
    s.name = "fetch-2t";
    s.description = "2 nodes, 1 page, 2 reader threads vs a writing home";
    s.nodes = 2;
    s.pages = 1;
    s.intervals = 2;
    s.programs = {
        {ThreadProgram{Intervals{{W(0)}, {}}}},
        {ThreadProgram{Intervals{{R(0)}, {R(0)}}},
         ThreadProgram{Intervals{{R(0)}, {}}}},
    };
    out.push_back(std::move(s));
  }
  {
    // Sole-modifier migration in interval 0, multi-modifier tie-break in
    // interval 1, reads in interval 2: the canonical migratory-home walk
    // (catches illegal-state-edge and wrong-home-tie-break).
    Scenario s;
    s.name = "migratory";
    s.description = "2 nodes, 1 page: migrate, contend, read back";
    s.nodes = 2;
    s.pages = 1;
    s.intervals = 3;
    s.programs = {
        {ThreadProgram{Intervals{{}, {W(0)}, {R(0)}}}},
        {ThreadProgram{Intervals{{W(0)}, {W(0)}, {R(0)}}}},
    };
    out.push_back(std::move(s));
  }
  {
    // Three nodes, two pages migrating in opposite directions, then the
    // master reads both back through fresh fetches.
    Scenario s;
    s.name = "two-pages";
    s.description = "3 nodes, 2 pages migrating apart, master reads back";
    s.nodes = 3;
    s.pages = 2;
    s.intervals = 2;
    s.programs = {
        {ThreadProgram{Intervals{{}, {R(0), R(1)}}}},
        {ThreadProgram{Intervals{{W(0)}, {}}}},
        {ThreadProgram{Intervals{{W(1)}, {}}}},
    };
    out.push_back(std::move(s));
  }
  {
    // Fetch traffic under one drop and one dup: retransmission, duplicate
    // replies, reordering. A duplicated interval-0 reply can straddle the
    // invalidating barrier and race the interval-1 refetch, so this also
    // exercises the reply sequence-number check (skip-reply-seq-check).
    Scenario s;
    s.name = "chaos-fetch";
    s.description = "2 nodes, 1 page, reader under drop=1 dup=1";
    s.nodes = 2;
    s.pages = 1;
    s.intervals = 2;
    s.drop_budget = 1;
    s.dup_budget = 1;
    s.programs = {
        {ThreadProgram{Intervals{{W(0)}, {}}}},
        {ThreadProgram{Intervals{{R(0)}, {R(0)}}}},
    };
    out.push_back(std::move(s));
  }
  {
    // Diff flushing under drop=1 dup=1: duplicate diffs must be re-acked
    // but never re-applied (catches skip-diff-dedup).
    Scenario s;
    s.name = "chaos-diff";
    s.description = "2 nodes, 1 page, remote writer's diff under drop=1 dup=1";
    s.nodes = 2;
    s.pages = 1;
    s.intervals = 2;
    s.drop_budget = 1;
    s.dup_budget = 1;
    s.home_migration = false;  // keep the home remote so every flush diffs
    s.programs = {
        {ThreadProgram{Intervals{{}, {R(0)}}}},
        {ThreadProgram{Intervals{{W(0)}, {}}}},
    };
    out.push_back(std::move(s));
  }
  {
    // Tree chain 0 <- 1 <- 2 (fanout=1): node 1 is an interior gather node
    // that merges the leaf's notices with its own and forwards one
    // aggregated arrival; the departure re-fans down the same edges. Both
    // non-root nodes write, so the root's tie-break runs over modifier
    // attributions that traveled different depths.
    Scenario s;
    s.name = "tree-chain";
    s.description = "3 nodes in a fanout=1 chain: subtree writes, root reads";
    s.nodes = 3;
    s.pages = 1;
    s.intervals = 2;
    s.fanout = 1;
    s.programs = {
        {ThreadProgram{Intervals{{}, {R(0)}}}},
        {ThreadProgram{Intervals{{W(0)}, {}}}},
        {ThreadProgram{Intervals{{W(0)}, {}}}},
    };
    out.push_back(std::move(s));
  }
  {
    // Fanout=2 heap over 4 nodes (0 <- {1, 2}, 1 <- {3}): disjoint subtrees
    // merge at different depths, and the deep leaf's write notice crosses
    // two gather edges before the root decides the migration.
    Scenario s;
    s.name = "tree-fanout2";
    s.description = "4 nodes, fanout=2: depth-2 leaf writes, root reads back";
    s.nodes = 4;
    s.pages = 1;
    s.intervals = 2;
    s.fanout = 2;
    s.programs = {
        {ThreadProgram{Intervals{{}, {R(0)}}}},
        {ThreadProgram{Intervals{{}, {}}}},
        {ThreadProgram{Intervals{{W(0)}, {}}}},
        {ThreadProgram{Intervals{{W(0)}, {}}}},
    };
    out.push_back(std::move(s));
  }
  {
    // The chain under drop=1 dup=1: a dropped departure on the lower edge
    // forces the leaf's resend-arrive and node 1's re-answer from its cached
    // departure; duplicated arrivals exercise the per-edge epoch rules.
    Scenario s;
    s.name = "tree-chaos";
    s.description = "fanout=1 chain, leaf writer under drop=1 dup=1";
    s.nodes = 3;
    s.pages = 1;
    s.intervals = 2;
    s.fanout = 1;
    s.drop_budget = 1;
    s.dup_budget = 1;
    s.programs = {
        {ThreadProgram{Intervals{{}, {R(0)}}}},
        {ThreadProgram{Intervals{{}, {}}}},
        {ThreadProgram{Intervals{{W(0)}, {}}}},
    };
    out.push_back(std::move(s));
  }
  {
    // Sharded home directory: page p starts at node p % N (the
    // rules::default_home shard) instead of all-on-node-0; the boundary
    // invariants now run against the sharded placement and migration moves
    // pages off their seed shard.
    Scenario s;
    s.name = "sharded";
    s.description = "3 nodes, 2 sharded pages: cross-shard writes and reads";
    s.nodes = 3;
    s.pages = 2;
    s.intervals = 2;
    s.sharded_homes = true;
    s.programs = {
        {ThreadProgram{Intervals{{W(1)}, {R(0)}}}},
        {ThreadProgram{Intervals{{}, {R(1)}}}},
        {ThreadProgram{Intervals{{W(0)}, {}}}},
    };
    out.push_back(std::move(s));
  }
  {
    // Exclusive home pages: node 1 homes page 1 (sharded) and writes it in
    // every interval; node 0 reads it from interval 1 on. Interval 0's
    // writes stay exclusive and unnoticed, node 0's first fetch ends that,
    // and the noticed writes that follow must invalidate node 0's copy. The
    // home is not the barrier root, so node 0 can process a departure and
    // refetch before the home processes it (clear-copies-at-departure).
    Scenario s;
    s.name = "exclusive-home";
    s.description = "2 nodes: a home writer every interval, a reader from 1";
    s.nodes = 2;
    s.pages = 2;
    s.intervals = 4;
    s.sharded_homes = true;
    s.drop_budget = 1;
    s.dup_budget = 1;
    s.programs = {
        {ThreadProgram{Intervals{{}, {R(1)}, {R(1)}, {R(1)}}}},
        {ThreadProgram{Intervals{{W(1)}, {W(1)}, {W(1)}, {W(1)}}}},
    };
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

const std::vector<Scenario>& standard_scenarios() {
  static const std::vector<Scenario> scenarios = make_standard_scenarios();
  return scenarios;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : standard_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace parade::verify

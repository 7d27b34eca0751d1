// DsmCluster: the in-process virtual cluster — N DsmNodes over an
// InProcFabric, each with its own protected pool view. This is the substrate
// the tests and figure benches run on; the parade_run launcher provides the
// equivalent multi-process deployment over SocketFabric.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dsm/node.hpp"
#include "net/faulty.hpp"
#include "net/inproc.hpp"

namespace parade::dsm {

class DsmCluster {
 public:
  /// The cluster-level Topology (rank ignored) carries
  /// the node count and barrier-tree fan-out; each node gets
  /// `topology.with_rank(r)`. Faults are injected when PARADE_FAULT_SEED /
  /// PARADE_FAULT_PLAN are set.
  explicit DsmCluster(const Topology& topology, DsmConfig config = {});
  /// Same, with an explicit fault plan (chaos tests; overrides the env).
  DsmCluster(const Topology& topology, DsmConfig config, net::FaultPlan faults);
  ~DsmCluster();

  int size() const { return static_cast<int>(nodes_.size()); }
  DsmNode& node(NodeId rank) { return *nodes_[static_cast<std::size_t>(rank)]; }
  /// The channel a node sends through: the fault decorator when a plan is
  /// active, the raw fabric channel otherwise.
  net::Channel& channel(NodeId rank) {
    if (!faulty_.empty()) return *faulty_[static_cast<std::size_t>(rank)];
    return fabric_.channel(rank);
  }

  /// Runs `fn(rank)` on one fresh thread per node and joins them. Exceptions
  /// escaping `fn` abort (the protocol cannot unwind mid-barrier).
  void run(const std::function<void(NodeId)>& fn);

  /// Orderly teardown: nodes first (their comm threads drain), then fabric.
  void shutdown();

 private:
  void init(const Topology& topology, const DsmConfig& config,
            std::optional<net::FaultPlan> faults);

  net::InProcFabric fabric_;
  /// One decorator per rank when a fault plan is active; empty otherwise.
  std::vector<std::unique_ptr<net::FaultyChannel>> faulty_;
  std::vector<std::unique_ptr<DsmNode>> nodes_;
};

}  // namespace parade::dsm

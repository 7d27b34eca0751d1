#include "dsm/cluster.hpp"

#include <thread>

#include "common/log.hpp"
#include "obs/registry.hpp"

namespace parade::dsm {

DsmCluster::DsmCluster(const Topology& topology, DsmConfig config)
    : fabric_(topology.nodes) {
  init(topology, config, net::FaultPlan::from_env());
}

DsmCluster::DsmCluster(const Topology& topology, DsmConfig config,
                       net::FaultPlan faults)
    : fabric_(topology.nodes) {
  init(topology, config, std::move(faults));
}

void DsmCluster::init(const Topology& topology, const DsmConfig& config,
                      std::optional<net::FaultPlan> faults) {
  const int size = topology.nodes;
  if (faults && faults->active()) {
    auto epoch = std::make_shared<std::atomic<std::int64_t>>(0);
    faulty_.reserve(static_cast<std::size_t>(size));
    for (NodeId rank = 0; rank < size; ++rank) {
      faulty_.push_back(std::make_unique<net::FaultyChannel>(
          fabric_.channel(rank), *faults, epoch));
    }
  }
  nodes_.reserve(static_cast<std::size_t>(size));
  for (NodeId rank = 0; rank < size; ++rank) {
    auto node = std::make_unique<DsmNode>(topology.with_rank(rank),
                                          channel(rank), config);
    Status s = node->start();
    PARADE_CHECK_MSG(s.is_ok(), s.message());
    nodes_.push_back(std::move(node));
  }
}

DsmCluster::~DsmCluster() { shutdown(); }

void DsmCluster::run(const std::function<void(NodeId)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (NodeId rank = 0; rank < size(); ++rank) {
    threads.emplace_back([&fn, rank] {
      logging::set_thread_node_tag(rank);
      fn(rank);
    });
  }
  for (auto& thread : threads) thread.join();
}

void DsmCluster::shutdown() {
  for (auto& node : nodes_) {
    if (node) node->shutdown();
  }
  fabric_.shutdown();
  // DSM-only workloads (chaos_test and friends) get metrics/trace dumps too;
  // no-op unless PARADE_METRICS / PARADE_TRACE_OUT are set.
  obs::Registry::instance().export_if_configured("dsm_cluster");
}

}  // namespace parade::dsm

#include "runtime/node_runtime.hpp"

#include "common/env.hpp"
#include "common/log.hpp"

namespace parade {

RuntimeConfig runtime_config_from_env() {
  RuntimeConfig config;
  config.nodes = static_cast<int>(env::get_int_or("PARADE_NODES", 2));
  config.threads_per_node =
      static_cast<int>(env::get_int_or("PARADE_THREADS", 2));
  config.cpu_scale = vtime::cpu_scale_from_env();
  config.dsm.net = vtime::model_from_env();
  config.dsm.machine.compute_threads = config.threads_per_node;
  config.dsm.machine.cpus_per_node =
      static_cast<int>(env::get_int_or("PARADE_CPUS_PER_NODE", 2));
  config.dsm.home_migration = env::get_bool_or("PARADE_HOME_MIGRATION", true);
  config.dsm.pool_bytes =
      static_cast<std::size_t>(env::get_int_or("PARADE_POOL_MB", 64)) << 20;
  config.dsm.retry = net::RetryPolicy::from_env();
  const std::string barrier_spec = env::get_string_or("PARADE_BARRIER", "flat");
  if (const auto fanout = parse_barrier_spec(barrier_spec)) {
    config.barrier_fanout = *fanout;
  } else {
    // parade_run rejects bad specs up front (exit 2); a bare binary falls
    // back to the flat barrier rather than aborting mid-launch.
    PLOG_WARN("ignoring unparsable PARADE_BARRIER='" << barrier_spec
                                                     << "' (want flat|tree:<k>)");
  }
  config.dsm.sharded_homes = env::get_bool_or("PARADE_HOME_SHARDING", false);
  const std::string map_spec = env::get_string_or("PARADE_MAP_METHOD", "memfd");
  if (const auto method = dsm::parse_map_method(map_spec)) {
    config.dsm.map_method = *method;
  } else {
    PLOG_WARN("ignoring unparsable PARADE_MAP_METHOD='"
              << map_spec << "' (want memfd|sysv)");
  }
  return config;
}

NodeRuntime::NodeRuntime(net::Channel& channel, const RuntimeConfig& config)
    : config_(config) {
  // One Topology value per node, shared by every layer: the DSM barrier tree,
  // the communicator, and the thread team all see the same shape.
  const Topology topology{channel.rank(), channel.size(),
                          config_.barrier_fanout};
  dsm_ = std::make_unique<dsm::DsmNode>(topology, channel, config_.dsm);
  comm_ = std::make_unique<mp::Comm>(topology, channel, config_.dsm.net,
                                     config_.dsm.retry);
  team_ = std::make_unique<Team>(*this, topology, config_.threads_per_node);
}

NodeRuntime::~NodeRuntime() { shutdown(); }

Status NodeRuntime::start() {
  if (Status s = dsm_->start(); !s) return s;
  team_->start();
  return Status::ok();
}

void NodeRuntime::shutdown() {
  if (team_) team_->stop();
  if (dsm_) dsm_->shutdown();
}

void NodeRuntime::main_entry(const std::function<void()>& program) {
  logging::set_thread_node_tag(node_id());
  ThreadCtx ctx(config_.cpu_scale);
  ctx.node = this;
  ctx.local_id = 0;
  detail::set_current_ctx(&ctx);
  ctx.clock.reset(0.0);
  program();
  ctx.clock.sync_cpu();
  final_vtime_ = ctx.clock.now();
  // Linger before teardown stops this node's MP acks: a peer whose last ack
  // was lost retries until it gets one. Running here, after the clock is
  // read, keeps the linger out of virtual time and lets all nodes linger at
  // once.
  comm_->quiesce();
  detail::set_current_ctx(nullptr);
}

}  // namespace parade

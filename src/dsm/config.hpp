// DSM configuration knobs.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "net/fault.hpp"
#include "vtime/cost_model.hpp"

namespace parade::dsm {

/// How the pool's second (always-writable) mapping is created — the paper's
/// §5.1 solutions to the atomic page update problem.
enum class MapMethod {
  /// Anonymous file via memfd_create mapped twice (the paper's conventional
  /// "file mapping" method, minus an on-disk file).
  kMemfd,
  /// System V shared memory attached twice (paper's first alternative).
  kSysV,
  /// The paper's mdup() syscall — requires their kernel patch; create()
  /// reports kUnsupported.
  kMdup,
  /// The paper's child-process page-table method — needs cross-process
  /// coordination we do not reproduce; create() reports kUnsupported.
  kChildProcess,
};

const char* to_string(MapMethod method);

struct DsmConfig {
  std::size_t pool_bytes = std::size_t{64} << 20;  // paper: 64 MB for CG
  std::size_t page_bytes = kDefaultPageBytes;
  /// How the SegmentPool's backing object is created (PARADE_MAP_METHOD:
  /// "memfd" | "sysv"; mdup/child-process probe as unsupported).
  MapMethod map_method = MapMethod::kMemfd;
  /// HLRC home migration at barrier time (paper §5.2.2). Off = fixed home,
  /// i.e. original HLRC (the baseline in ablation benches).
  bool home_migration = true;

  /// Stripe initial page homes round-robin across nodes instead of homing
  /// everything at node 0 (rules::default_home). Off by default: single-home
  /// start matches the paper's setup and many tests pin home 0.
  bool sharded_homes = false;

  vtime::NetworkModel net{};
  vtime::MachineModel machine{};

  /// Timeout/retry knobs for the protocol's blocking exchanges (page fetch,
  /// diff ack, barrier, locks). Defaults never fire on a fault-free fabric;
  /// chaos tests shorten them to keep runtimes low.
  net::RetryPolicy retry{};

  std::size_t num_pages() const { return pool_bytes / page_bytes; }
};

/// Maximum DSM lock ids (grant tags are lock-indexed, see protocol.hpp).
inline constexpr int kMaxDsmLocks = 256;

}  // namespace parade::dsm

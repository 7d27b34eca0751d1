// Protocol event counters; the ablation benches and several tests assert on
// these (page fetch counts, diff bytes, migrations...).
//
// DsmStats is a thin per-node view over the obs registry: each counter lives
// in the registry as "dsm.<name>" (so it appears in metrics exports and
// epoch slices), and this class just caches the handles so the fault/flush
// hot paths keep their single relaxed fetch_add.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "obs/metric.hpp"

namespace parade::dsm {

// One entry per DSM protocol counter; X(name) is expanded for snapshot
// fields, inc_ methods, handle members, and registry registration.
#define PARADE_DSM_COUNTERS(X) \
  X(read_faults)               \
  X(write_faults)              \
  X(page_fetches)    /* remote page fetches issued */ \
  X(page_serves)     /* requests served as home */    \
  X(diffs_created)             \
  X(diff_bytes_sent)           \
  X(diffs_applied)             \
  X(twins_created)   /* non-home write faults copying a twin */ \
  X(barriers)                  \
  X(write_notices_sent)        \
  X(invalidations)             \
  X(home_migrations) /* counted at the master */      \
  X(lock_acquires)             \
  X(lock_remote_grants)        \
  X(protect_calls)   /* mprotect calls on the application view */

struct DsmStatsSnapshot {
#define PARADE_DSM_FIELD(name) std::int64_t name = 0;
  PARADE_DSM_COUNTERS(PARADE_DSM_FIELD)
#undef PARADE_DSM_FIELD
  /// Protocol retransmissions (page fetch / diff / lock / barrier timeouts).
  /// Zero on a fault-free fabric; nonzero proves the retry paths fired.
  std::int64_t retries = 0;
};

class DsmStats {
 public:
  /// Resolves registry handles for node `node`; cheap to construct once per
  /// DsmNode, not per operation.
  explicit DsmStats(NodeId node);

#define PARADE_DSM_INC(name)                       \
  void inc_##name(std::int64_t by = 1) {           \
    name##_->add(by);                              \
  }
  PARADE_DSM_COUNTERS(PARADE_DSM_INC)
#undef PARADE_DSM_INC

  /// Registered as "dsm.retry.count" (dotted name: it pairs with
  /// net.fault.* and mp.retry.count in fault-injection reports).
  void inc_retries(std::int64_t by = 1) { retries_->add(by); }

  DsmStatsSnapshot snapshot() const;

 private:
#define PARADE_DSM_MEMBER(name) obs::Counter* name##_;
  PARADE_DSM_COUNTERS(PARADE_DSM_MEMBER)
#undef PARADE_DSM_MEMBER
  obs::Counter* retries_;
};

}  // namespace parade::dsm

#include "apps/syncbench.hpp"

#include "runtime/api.hpp"

namespace parade::apps {
namespace {

/// A dab of work per iteration so the construct is not measured back to back
/// with itself (EPCC's delay() function).
void delay(double* sink) {
  volatile double acc = *sink;
  for (int i = 0; i < 32; ++i) acc = acc + 1e-9 * i;
  *sink = acc;
}

/// Virtual time of `loop_body` run `iterations` times inside one parallel
/// region, measured from region start to region end on the master clock.
double timed_region_us(long iterations,
                       const std::function<void(long)>& loop_body) {
  barrier();
  const VirtualUs start = vtime_now();
  parallel([&] {
    for (long i = 0; i < iterations; ++i) loop_body(i);
  });
  return vtime_now() - start;
}

}  // namespace

const char* to_string(SyncConstruct construct) {
  switch (construct) {
    case SyncConstruct::kParallel: return "parallel";
    case SyncConstruct::kBarrier: return "barrier";
    case SyncConstruct::kSingleParade: return "single(ParADE)";
    case SyncConstruct::kSingleKdsm: return "single(KDSM)";
    case SyncConstruct::kCriticalParade: return "critical(ParADE)";
    case SyncConstruct::kCriticalKdsm: return "critical(KDSM)";
    case SyncConstruct::kAtomicParade: return "atomic(ParADE)";
    case SyncConstruct::kReduction: return "reduction";
  }
  return "?";
}

SyncbenchResult syncbench_measure(SyncConstruct construct, long iterations) {
  SyncbenchResult result;
  result.construct = construct;
  result.iterations = iterations;

  double sink = 1.0;
  result.reference_us =
      timed_region_us(iterations, [&](long) { delay(&sink); });

  switch (construct) {
    case SyncConstruct::kParallel: {
      // Region enter/exit itself: measure empty regions serially.
      barrier();
      const VirtualUs start = vtime_now();
      for (long i = 0; i < iterations; ++i) {
        parallel([&] { delay(&sink); });
      }
      result.total_us = vtime_now() - start;
      // The reference for region cost is the bare delay run serially once
      // per iteration by the main thread.
      const VirtualUs ref_start = vtime_now();
      for (long i = 0; i < iterations; ++i) delay(&sink);
      result.reference_us = vtime_now() - ref_start;
      break;
    }
    case SyncConstruct::kBarrier:
      result.total_us = timed_region_us(iterations, [&](long) {
        delay(&sink);
        barrier();
      });
      break;
    case SyncConstruct::kSingleParade: {
      double value = 0.0;
      result.total_us = timed_region_us(iterations, [&](long i) {
        delay(&sink);
        single_small(&value, sizeof(value),
                     [&] { value = static_cast<double>(i); });
      });
      break;
    }
    case SyncConstruct::kSingleKdsm: {
      auto* flag = shmalloc_array<std::int64_t>(1);
      auto* value = shmalloc_array<double>(1);
      if (node_id() == 0) {
        *flag = 0;
        *value = 0.0;
      }
      barrier();
      result.total_us = timed_region_us(iterations, [&](long i) {
        delay(&sink);
        single_conventional(3, flag, i + 1,
                            [&] { *value = static_cast<double>(i); });
      });
      break;
    }
    case SyncConstruct::kCriticalParade: {
      double sum_replica = 0.0;
      result.total_us = timed_region_us(iterations, [&](long) {
        delay(&sink);
        team_update(&sum_replica, 1.0, mp::Op::kSum);
      });
      break;
    }
    case SyncConstruct::kCriticalKdsm: {
      auto* sum = shmalloc_array<double>(1);
      if (node_id() == 0) *sum = 0.0;
      barrier();
      result.total_us = timed_region_us(iterations, [&](long) {
        delay(&sink);
        critical_conventional(4, [&] { *sum += 1.0; });
      });
      break;
    }
    case SyncConstruct::kAtomicParade: {
      double count_replica = 0.0;
      result.total_us = timed_region_us(iterations, [&](long) {
        delay(&sink);
        team_update(&count_replica, 1.0, mp::Op::kSum);
      });
      break;
    }
    case SyncConstruct::kReduction: {
      result.total_us = timed_region_us(iterations, [&](long) {
        delay(&sink);
        (void)team_reduce(1.0, mp::Op::kSum);
      });
      break;
    }
  }
  return result;
}

std::vector<SyncbenchResult> syncbench_all(long iterations) {
  std::vector<SyncbenchResult> results;
  for (const SyncConstruct construct :
       {SyncConstruct::kParallel, SyncConstruct::kBarrier,
        SyncConstruct::kSingleParade, SyncConstruct::kSingleKdsm,
        SyncConstruct::kCriticalParade, SyncConstruct::kCriticalKdsm,
        SyncConstruct::kAtomicParade, SyncConstruct::kReduction}) {
    results.push_back(syncbench_measure(construct, iterations));
  }
  return results;
}

}  // namespace parade::apps

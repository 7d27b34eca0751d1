// Shared by mp_test and mp_fault_test: a runner that puts one Comm per rank
// on a FaultyFabric, and CollectivesAtSize, every collective algorithm at a
// node count over a fault plan. mp_test instantiates it fault-free (the plain
// wire); mp_fault_test over a chaos plan (the reliable wire).
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "mp/comm.hpp"
#include "net/fault.hpp"

namespace parade::mp {

/// Short timeouts so chaos runs recover quickly, and a deep budget so no
/// healing fault outlasts it. The plain wire never waits on it.
inline net::RetryPolicy test_retry() { return net::RetryPolicy{30, 200}; }

/// Runs `body(comm)` on one thread per rank over a FaultyFabric with `plan`
/// (an inert plan is a plain in-process fabric). Resets the ranks' metrics
/// first, so counters read afterwards describe this run alone.
void run_ranks(int n, const net::FaultPlan& plan,
               const std::function<void(Comm&)>& body,
               net::RetryPolicy retry = test_retry());

/// Sum of one counter over ranks [0, n).
std::int64_t total_counter(int n, const std::string& name);

struct CollectiveCase {
  int nodes = 1;
  net::FaultPlan plan;
};

class CollectivesAtSize : public ::testing::TestWithParam<CollectiveCase> {
 protected:
  int nodes() const { return GetParam().nodes; }
  /// run_ranks over the case's node count and plan; afterwards checks that
  /// the communicator took the wire the plan selects (acks exactly when the
  /// plan is active and messages flowed).
  void run(const std::function<void(Comm&)>& body);
};

/// Instantiation name suffix: "nodes<N>".
std::string collective_case_name(
    const ::testing::TestParamInfo<CollectiveCase>& info);

}  // namespace parade::mp

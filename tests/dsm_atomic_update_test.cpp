// The atomic page update problem (paper §5.1, Figure 4): while the runtime
// installs a fetched page, concurrently faulting application threads must
// never observe a partially-copied page. Every page here is written as 512
// copies of one 64-bit epoch stamp; any reader that slipped past the
// protection during the install would see mixed stamps.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "dsm/cluster.hpp"

namespace parade::dsm {
namespace {

class AtomicUpdateStress : public ::testing::TestWithParam<MapMethod> {};

TEST_P(AtomicUpdateStress, NoTornPagesUnderConcurrentFaults) {
  constexpr int kPages = 8;
  constexpr int kEpochs = 12;
  constexpr int kReaders = 4;

  DsmConfig config;
  config.pool_bytes = 1 << 20;
  config.map_method = GetParam();
  DsmCluster cluster(Topology::cluster(2), config);

  cluster.run([&](NodeId rank) {
    auto* data = static_cast<std::uint64_t*>(
        cluster.node(rank).shmalloc(kPages * 4096, 4096));
    cluster.node(rank).barrier();

    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
      if (rank == 0) {
        // Writer: stamp every word of every page with the epoch.
        for (int p = 0; p < kPages; ++p) {
          for (int w = 0; w < 512; ++w) {
            data[p * 512 + w] = static_cast<std::uint64_t>(epoch) << 16 | p;
          }
        }
      }
      cluster.node(rank).barrier();
      if (rank == 1) {
        // Readers: concurrent first-touch faults on all pages (invalidated
        // every epoch since node 0 is the sole modifier each round). All
        // threads race through TRANSIENT/BLOCKED installs.
        std::vector<std::thread> readers;
        std::atomic<int> torn{0};
        for (int t = 0; t < kReaders; ++t) {
          readers.emplace_back([&, t] {
            for (int p = t % kPages; p < kPages; ++p) {
              const std::uint64_t first = data[p * 512];
              for (int w = 1; w < 512; ++w) {
                if (data[p * 512 + w] != first) torn.fetch_add(1);
              }
            }
          });
        }
        for (auto& r : readers) r.join();
        ASSERT_EQ(torn.load(), 0) << "torn page observed at epoch " << epoch;
        // And the content is the current epoch's stamp.
        for (int p = 0; p < kPages; ++p) {
          ASSERT_EQ(data[p * 512],
                    static_cast<std::uint64_t>(epoch) << 16 | p);
        }
      }
      cluster.node(rank).barrier();
    }
  });
  cluster.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Methods, AtomicUpdateStress,
                         ::testing::Values(MapMethod::kMemfd, MapMethod::kSysV),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace parade::dsm

// Histogram: log-linear latency distribution (HdrHistogram-style), the third
// metric primitive next to Counter and Timer (obs/metric.hpp). Each power-of-
// two octave is split into 2^kHistSubBits linear sub-buckets, bounding the
// quantization error of any percentile to ~1/2^kHistSubBits (12.5%) of the
// value — fine enough to resolve fetch-latency changes of a few tens of
// percent, where plain log2 buckets could only see 2x steps. Recording is lock-free (one relaxed add per bucket plus a CAS loop
// for the max); percentile reads are racy-by-design snapshots, same contract
// as Counter.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

#include "common/timing.hpp"
#include "obs/metric.hpp"

namespace parade::obs {

inline constexpr int kHistSubBits = 3;  // 8 linear sub-buckets per octave
inline constexpr int kHistSubBuckets = 1 << kHistSubBits;
/// 64 octaves x 8 sub-buckets bounds the index space; the top indices are
/// unreachable for positive int64 inputs and simply stay zero.
inline constexpr int kHistBuckets = 512;

/// Bucket index for a latency sample. Values below 2^kHistSubBits map
/// exactly (bucket = value; bucket 0 holds <= 0 ns); above that, the top
/// kHistSubBits bits after the leading one select a linear sub-bucket within
/// the value's octave. Consecutive values map to the same or consecutive
/// buckets, so the mapping is monotone.
inline int hist_bucket_index(std::int64_t ns) {
  if (ns <= 0) return 0;
  const auto v = static_cast<std::uint64_t>(ns);
  if (v < static_cast<std::uint64_t>(kHistSubBuckets)) {
    return static_cast<int>(v);
  }
  const int msb = std::bit_width(v) - 1;
  const int shift = msb - kHistSubBits;
  const int index =
      ((msb - kHistSubBits + 1) << kHistSubBits) +
      static_cast<int>((v >> shift) & (kHistSubBuckets - 1));
  return index >= kHistBuckets ? kHistBuckets - 1 : index;
}

/// Upper edge (inclusive) of bucket i, the value percentile queries report.
inline std::int64_t hist_bucket_upper_ns(int index) {
  if (index <= 0) return 0;
  if (index < kHistSubBuckets) return index;
  const int octave = index >> kHistSubBits;
  const int sub = index & (kHistSubBuckets - 1);
  const int shift = octave - 1;
  if (shift >= 63 - kHistSubBits) return INT64_MAX;
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(kHistSubBuckets + sub + 1) << shift) - 1);
}

class Histogram {
 public:
  void record_ns(std::int64_t ns) {
    buckets_[static_cast<std::size_t>(hist_bucket_index(ns))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::int64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (ns > seen && !max_ns_.compare_exchange_weak(
                            seen, ns, std::memory_order_relaxed)) {
    }
  }

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  std::int64_t max_ns() const {
    return max_ns_.load(std::memory_order_relaxed);
  }

  /// Value at quantile `q` in [0, 1]: the upper edge of the first bucket whose
  /// cumulative count reaches q * count, capped at the observed max. 0 when
  /// the histogram is empty.
  std::int64_t percentile_ns(double q) const;

  void reset();

 private:
  std::array<std::atomic<std::int64_t>, kHistBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> total_ns_{0};
  std::atomic<std::int64_t> max_ns_{0};
};

/// Charges the enclosed scope's wall time to a Histogram (and optionally a
/// Timer too). Null handles make the scope free, mirroring ScopedTimer.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(Histogram* hist, Timer* timer = nullptr)
      : hist_(hist),
        timer_(timer),
        start_ns_(hist != nullptr || timer != nullptr ? wall_ns() : 0) {}
  ~ScopedHistTimer() {
    if (hist_ == nullptr && timer_ == nullptr) return;
    const std::int64_t elapsed = wall_ns() - start_ns_;
    if (hist_ != nullptr) hist_->record_ns(elapsed);
    if (timer_ != nullptr) timer_->add_ns(elapsed);
  }

  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  Histogram* hist_;
  Timer* timer_;
  std::int64_t start_ns_;
};

}  // namespace parade::obs

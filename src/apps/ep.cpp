#include "apps/ep.hpp"

#include <cmath>
#include <vector>

#include "common/nas_rng.hpp"
#include "runtime/api.hpp"

namespace parade::apps {
namespace {

constexpr double kSeed = 271828183.0;
constexpr int kMk = 16;                     // batch exponent (NPB MK)
constexpr std::int64_t kNk = 1LL << kMk;    // pairs per batch

/// Processes one batch of kNk pairs whose generator state starts at the
/// batch's jumped seed, accumulating into `acc`.
void ep_batch(std::int64_t batch, double a_pow_2nk_unused, EpResult& acc,
              std::vector<double>& scratch) {
  (void)a_pow_2nk_unused;
  // Jump the generator to the batch start: seed * a^(2*kNk*batch) mod 2^46.
  double t1 = nas::randlc_skip(kSeed, nas::kDefaultMult, 2 * kNk * batch);
  scratch.resize(static_cast<std::size_t>(2 * kNk));
  nas::vranlc(2 * kNk, t1, nas::kDefaultMult, scratch.data());

  for (std::int64_t i = 0; i < kNk; ++i) {
    const double x = 2.0 * scratch[static_cast<std::size_t>(2 * i)] - 1.0;
    const double y = 2.0 * scratch[static_cast<std::size_t>(2 * i + 1)] - 1.0;
    const double t = x * x + y * y;
    if (t <= 1.0) {
      const double z = std::sqrt(-2.0 * std::log(t) / t);
      const double gx = x * z;
      const double gy = y * z;
      const auto bin = static_cast<std::size_t>(
          std::max(std::fabs(gx), std::fabs(gy)));
      if (bin < acc.q.size()) acc.q[bin] += 1;
      acc.sx += gx;
      acc.sy += gy;
      acc.gaussian_pairs += 1;
    }
  }
}

std::int64_t num_batches(int m) {
  return m > kMk ? (1LL << (m - kMk)) : 1;
}

}  // namespace

EpResult ep_serial(const EpParams& params) {
  EpResult acc;
  std::vector<double> scratch;
  const std::int64_t batches = num_batches(params.m);
  for (std::int64_t b = 0; b < batches; ++b) ep_batch(b, 0, acc, scratch);
  return acc;
}

EpResult ep_parade(const EpParams& params) {
  const std::int64_t batches = num_batches(params.m);
  // Each thread's private sums are merged by one collective at the end (zero
  // DSM traffic — the paper's point about EP).
  EpResult reduced;
  parallel([&] {
    EpResult local;
    std::vector<double> scratch;
    parallel_for(
        0, batches,
        [&](long lo, long hi) {
          for (long b = lo; b < hi; ++b) ep_batch(b, 0, local, scratch);
        });
    // Pack into one buffer and reduce once (sx, sy, q[], pairs).
    struct Packed {
      double sx, sy;
      std::int64_t q[10];
      std::int64_t pairs;
    } packed{};
    packed.sx = local.sx;
    packed.sy = local.sy;
    for (int i = 0; i < 10; ++i) packed.q[i] = local.q[static_cast<std::size_t>(i)];
    packed.pairs = local.gaussian_pairs;

    team_allreduce_bytes(&packed, sizeof(Packed),
                         [](void* inout, const void* in, std::size_t) {
                           auto* a = static_cast<Packed*>(inout);
                           const auto* b = static_cast<const Packed*>(in);
                           a->sx += b->sx;
                           a->sy += b->sy;
                           for (int i = 0; i < 10; ++i) a->q[i] += b->q[i];
                           a->pairs += b->pairs;
                         });
    if (local_thread_id() == 0) {
      reduced.sx = packed.sx;
      reduced.sy = packed.sy;
      for (int i = 0; i < 10; ++i) reduced.q[static_cast<std::size_t>(i)] = packed.q[i];
      reduced.gaussian_pairs = packed.pairs;
    }
  });
  return reduced;
}

bool ep_reference(int m, double* sx, double* sy) {
  // NPB 2.3 verification sums.
  switch (m) {
    case 24:  // class S
      *sx = -3.247834652034740e+3;
      *sy = -6.958407078382297e+3;
      return true;
    case 25:  // class W
      *sx = -2.863319731645753e+3;
      *sy = -6.320053679109499e+3;
      return true;
    case 28:  // class A
      *sx = -4.295875165629892e+3;
      *sy = -1.580732573678431e+4;
      return true;
    default:
      return false;
  }
}

bool ep_verify(const EpResult& result, int m, double eps) {
  double ref_sx = 0.0;
  double ref_sy = 0.0;
  if (!ep_reference(m, &ref_sx, &ref_sy)) return false;
  const bool sx_ok = std::fabs((result.sx - ref_sx) / ref_sx) <= eps;
  const bool sy_ok = std::fabs((result.sy - ref_sy) / ref_sy) <= eps;
  return sx_ok && sy_ok;
}

}  // namespace parade::apps

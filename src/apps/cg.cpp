#include "apps/cg.hpp"

#include <cmath>
#include <cstring>

#include "common/status.hpp"
#include "runtime/api.hpp"

namespace parade::apps {

// ---------------------------------------------------------------------------
// Serial reference

namespace {

constexpr int kCgInnerIters = 25;  // NPB's cgitmax

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void spmv(const SparseMatrix& m, const std::vector<double>& p,
          std::vector<double>& q) {
  for (int i = 0; i < m.n; ++i) {
    double sum = 0.0;
    for (int k = m.rowstr[static_cast<std::size_t>(i)];
         k < m.rowstr[static_cast<std::size_t>(i) + 1]; ++k) {
      sum += m.values[static_cast<std::size_t>(k)] *
             p[static_cast<std::size_t>(m.colidx[static_cast<std::size_t>(k)])];
    }
    q[static_cast<std::size_t>(i)] = sum;
  }
}

/// One conj_grad call (NPB structure); returns ||x - A z||.
double conj_grad_serial(const SparseMatrix& m, const std::vector<double>& x,
                        std::vector<double>& z) {
  const std::size_t n = static_cast<std::size_t>(m.n);
  std::vector<double> r = x;
  std::vector<double> p = r;
  std::vector<double> q(n, 0.0);
  std::fill(z.begin(), z.end(), 0.0);
  double rho = dot(r, r);

  for (int it = 0; it < kCgInnerIters; ++it) {
    spmv(m, p, q);
    const double d = dot(p, q);
    const double alpha = rho / d;
    for (std::size_t i = 0; i < n; ++i) {
      z[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    const double rho0 = rho;
    rho = dot(r, r);
    const double beta = rho / rho0;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
  }

  spmv(m, z, q);
  double rnorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = x[i] - q[i];
    rnorm += diff * diff;
  }
  return std::sqrt(rnorm);
}

}  // namespace

CgResult cg_serial(const CgParams& params) {
  const SparseMatrix m = make_nas_cg_matrix(params);
  const std::size_t n = static_cast<std::size_t>(m.n);
  std::vector<double> x(n, 1.0);
  std::vector<double> z(n, 0.0);

  CgResult result;
  for (int outer = 0; outer < params.niter; ++outer) {
    result.last_rnorm = conj_grad_serial(m, x, z);
    const double xz = dot(x, z);
    result.zeta = params.shift + 1.0 / xz;
    const double znorm = 1.0 / std::sqrt(dot(z, z));
    for (std::size_t i = 0; i < n; ++i) x[i] = z[i] * znorm;
  }
  return result;
}

// ---------------------------------------------------------------------------
// ParADE SPMD version

CgResult cg_parade(const CgParams& params) {
  const SparseMatrix host = make_nas_cg_matrix(params);
  const std::size_t n = static_cast<std::size_t>(host.n);
  const std::size_t nnz = host.nnz();

  // Shared state in the DSM pool (matrix read-only after setup; vectors are
  // written by row slices — the paper's "huge arrays" under HLRC).
  auto* rowstr = shmalloc_array<int>(n + 1);
  auto* colidx = shmalloc_array<int>(nnz);
  auto* values = shmalloc_array<double>(nnz);
  auto* x = shmalloc_array<double>(n);
  auto* z = shmalloc_array<double>(n);
  auto* p = shmalloc_array<double>(n);
  auto* q = shmalloc_array<double>(n);
  auto* r = shmalloc_array<double>(n);

  if (node_id() == 0) {
    std::memcpy(rowstr, host.rowstr.data(), (n + 1) * sizeof(int));
    std::memcpy(colidx, host.colidx.data(), nnz * sizeof(int));
    std::memcpy(values, host.values.data(), nnz * sizeof(double));
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 1.0;
      z[i] = 0.0;
    }
  }
  barrier();

  CgResult result;
  double zeta_replica = 0.0;

  for (int outer = 0; outer < params.niter; ++outer) {
    double rnorm_replica = 0.0;
    double xz_replica = 0.0;
    double zz_replica = 0.0;

    parallel([&] {
      long lo, hi;
      static_slice(0, static_cast<long>(n), &lo, &hi);

      // r = x, p = r, z = 0; rho = r.r
      double local = 0.0;
      for (long i = lo; i < hi; ++i) {
        r[i] = x[i];
        p[i] = r[i];
        z[i] = 0.0;
        local += r[i] * r[i];
      }
      double rho = team_reduce(local, mp::Op::kSum);
      barrier();

      for (int it = 0; it < kCgInnerIters; ++it) {
        // q = A p  (reads remote slices of p -> page traffic)
        double d_local = 0.0;
        for (long i = lo; i < hi; ++i) {
          double sum = 0.0;
          for (int k = rowstr[i]; k < rowstr[i + 1]; ++k) {
            sum += values[k] * p[colidx[k]];
          }
          q[i] = sum;
          d_local += p[i] * sum;
        }
        const double d = team_reduce(d_local, mp::Op::kSum);
        const double alpha = rho / d;

        double rho_local = 0.0;
        for (long i = lo; i < hi; ++i) {
          z[i] += alpha * p[i];
          r[i] -= alpha * q[i];
          rho_local += r[i] * r[i];
        }
        const double rho_new = team_reduce(rho_local, mp::Op::kSum);
        const double beta = rho_new / rho;
        rho = rho_new;
        for (long i = lo; i < hi; ++i) p[i] = r[i] + beta * p[i];
        barrier();  // p fully updated before the next SPMV reads it remotely
      }

      // rnorm = ||x - A z||
      barrier();
      double rn_local = 0.0;
      double xz_local = 0.0;
      double zz_local = 0.0;
      for (long i = lo; i < hi; ++i) {
        double sum = 0.0;
        for (int k = rowstr[i]; k < rowstr[i + 1]; ++k) {
          sum += values[k] * z[colidx[k]];
        }
        const double diff = x[i] - sum;
        rn_local += diff * diff;
        xz_local += x[i] * z[i];
        zz_local += z[i] * z[i];
      }
      team_update(&rnorm_replica, rn_local, mp::Op::kSum);
      team_update(&xz_replica, xz_local, mp::Op::kSum);
      team_update(&zz_replica, zz_local, mp::Op::kSum);

      // x = z / ||z||
      const double inv_norm = 1.0 / std::sqrt(zz_replica);
      for (long i = lo; i < hi; ++i) x[i] = z[i] * inv_norm;
    });

    result.last_rnorm = std::sqrt(rnorm_replica);
    zeta_replica = params.shift + 1.0 / xz_replica;
  }
  result.zeta = zeta_replica;
  return result;
}

}  // namespace parade::apps

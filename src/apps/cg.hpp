// Conjugate-gradient kernel in the structure of NAS CG (NPB 2.3): a power
// iteration of `niter` outer steps, each running 25 CG iterations on a
// sparse symmetric positive-definite matrix, reporting
// zeta = shift + 1 / (x·z).
//
// Matrix note (DESIGN.md §2): every run uses a bit-faithful port of NPB
// 2.3's makea (cg_nas.cpp), so the class presets (class_s/w/a) reproduce
// NPB's published zeta; the test suite checks class S against it to NPB's
// 1e-10 epsilon. Smaller `na` give small NAS-structured matrices for tests.
#pragma once

#include <vector>

namespace parade::apps {

struct CgParams {
  int na = 1400;      // rows; class S=1400, W=7000, A=14000
  int nonzer = 7;     // nonzeros per generated row-vector; S=7, W=8, A=11
  int niter = 15;     // outer power iterations
  double shift = 10;  // S=10, W=12, A=20

  static CgParams class_s() { return {1400, 7, 15, 10.0}; }
  static CgParams class_w() { return {7000, 8, 15, 12.0}; }
  static CgParams class_a() { return {14000, 11, 15, 20.0}; }
};

struct CgResult {
  double zeta = 0.0;
  double last_rnorm = 0.0;  // ||r|| after the final conj_grad call
};

/// CSR symmetric positive-definite test matrix.
struct SparseMatrix {
  int n = 0;
  std::vector<int> rowstr;   // n+1
  std::vector<int> colidx;   // nnz
  std::vector<double> values;

  std::size_t nnz() const { return values.size(); }
};

/// Bit-faithful NPB 2.3 makea (cg_nas.cpp): the same matrix for the same
/// params everywhere.
SparseMatrix make_nas_cg_matrix(const CgParams& params);

/// NPB published zeta for the S/W/A parameter sets (valid only with
/// niter=15); returns false when no reference exists.
bool cg_reference_zeta(const CgParams& params, double* zeta);

/// Single-threaded reference.
CgResult cg_serial(const CgParams& params);

/// SPMD ParADE version (call inside a cluster program on every node).
/// Vectors and the matrix live in the DSM pool; dot products and norms use
/// the hybrid collective reductions.
CgResult cg_parade(const CgParams& params);

}  // namespace parade::apps

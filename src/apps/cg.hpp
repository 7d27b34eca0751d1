// Conjugate-gradient kernel in the structure of NAS CG (NPB 2.3): a power
// iteration of `niter` outer steps, each running 25 CG iterations on a
// sparse symmetric positive-definite matrix, reporting
// zeta = shift + 1 / (x·z).
//
// Matrix note (DESIGN.md §2): the class presets (class_s/w/a) run on a
// bit-faithful port of NPB 2.3's makea (cg_nas.cpp), so zeta matches NPB's
// published verification values; the test suite checks class S against it
// to NPB's 1e-10 epsilon. A second, deterministic banded generator (same
// size and nonzeros per row, near- and far-diagonal bands) is the
// CgParams default: it is fast, and is verified by serial-vs-ParADE
// equivalence plus convergence checks, since NPB publishes no zeta for it.
#pragma once

#include <vector>

namespace parade::apps {

/// Which sparse matrix to run on: the fast deterministic banded generator,
/// or the bit-faithful NPB 2.3 makea port (verifies against NPB's published
/// zeta values; see cg_nas.cpp).
enum class CgGenerator { kBanded, kNas };

struct CgParams {
  int na = 1400;      // rows; class S=1400, W=7000, A=14000
  int nonzer = 7;     // nonzeros per generated row-vector; S=7, W=8, A=11
  int niter = 15;     // outer power iterations
  double shift = 10;  // S=10, W=12, A=20
  CgGenerator generator = CgGenerator::kBanded;

  static CgParams class_s() { return {1400, 7, 15, 10.0, CgGenerator::kNas}; }
  static CgParams class_w() { return {7000, 8, 15, 12.0, CgGenerator::kNas}; }
  static CgParams class_a() {
    return {14000, 11, 15, 20.0, CgGenerator::kNas};
  }
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

/// Deterministic banded generator (same matrix for the same params
/// everywhere; fast, used by default).
SparseMatrix make_cg_matrix(const CgParams& params);

/// Bit-faithful NPB 2.3 makea (cg_nas.cpp). Ignores params.generator.
SparseMatrix make_nas_cg_matrix(const CgParams& params);

/// Dispatches on params.generator.
SparseMatrix make_cg_matrix_for(const CgParams& params);

/// NPB published zeta for the S/W/A parameter sets (valid only with the NAS
/// generator and niter=15); returns false when no reference exists.
bool cg_reference_zeta(const CgParams& params, double* zeta);

/// Single-threaded reference.
CgResult cg_serial(const CgParams& params);

/// SPMD ParADE version (call inside a cluster program on every node).
/// Vectors and the matrix live in the DSM pool; dot products and norms use
/// the hybrid collective reductions.
CgResult cg_parade(const CgParams& params);

}  // namespace parade::apps

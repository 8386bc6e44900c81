// Householder QR factorization with column pivoting.
//
// This single factorization powers everything the tomography core needs:
// numerical rank, an orthonormal null-space basis (the N matrix of
// Algorithm 1), and least-squares / minimum-norm solves of the log-domain
// equation systems.
//
// The kernel never forms Q and walks R in row order, once per
// reflector: one strided pass swaps in the pivot column and reads
// reflector k off it, then one walk over the rows of reflectors k-1 and
// k (simd::reflect_rows) applies k-1 to each row and adds the updated
// row into k's dot in the same pass; the first reflector, and one after
// a skipped reflector, walk its rows for the dot alone. Each element of
// R and of Q^T b sees the same multiplies and adds in the same order as
// in the column-order loop kept as the test oracle
// (tests/linalg/qr_reference.cpp), so the results compare equal (==) to
// it at every SIMD level; skipped zero terms and the zeros left below
// the diagonal may differ from it only in the sign of an exact zero.
// The cost is one pass over the touched rows per reflector, where a dot
// pass and an update pass took two.
//
// These dense forms are linalg's own: the library outside linalg/
// reaches them only through the CSR entry points (solve.hpp,
// nullspace.hpp), which stage the dense image once. Tests and benches
// include this header for the kernel and its oracles.
#pragma once

#include <cstddef>
#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/linalg/solve.hpp"

namespace ntom {

/// R factor of a column-pivoted Householder QR of an m x n matrix A:
/// A * P = Q * R with Q (m x m) orthogonal, R (m x n) upper triangular,
/// and P a column permutation that moves the largest remaining column
/// first at each step (rank-revealing). Q itself is never formed.
struct qr_decomposition {
  matrix r;                      ///< m x n upper-triangular factor.
  std::vector<std::size_t> perm; ///< perm[j] = original column of pivoted col j.
  /// Numerical rank: the leading run of |R(k, k)| above `tolerance`,
  /// so the leading rank x rank block of R is nonsingular.
  std::size_t rank = 0;
  double tolerance = 0.0;        ///< absolute diagonal threshold used.
};

/// Factorizes A and applies the transposed reflector sequence to `rhs`
/// in place: rhs <- Q^T rhs, all a least-squares solve needs of Q (an
/// explicit m x m Q would dominate the time and memory of the ~10^4 x
/// few-hundred systems the estimators stage). The rank threshold is
/// rank_rel_tol (nullspace.hpp) times the largest diagonal of R (or 1).
/// `rhs.size()` must equal `a.rows()`.
[[nodiscard]] qr_decomposition qr_factorize_apply(const matrix& a,
                                                  std::vector<double>& rhs);

/// Orthonormal basis of the null space of A, returned as an n x k matrix
/// whose columns satisfy A * col ~ 0. k = n - rank(A); k == 0 yields an
/// n x 0 matrix, and a matrix with no rows the identity.
[[nodiscard]] matrix null_space_basis(const matrix& a);

/// Same basis from an existing factorization of A (only R, perm, and
/// rank are read). Lets one factorization feed both the minimum-norm
/// solve and the identifiability analysis instead of factorizing twice.
[[nodiscard]] matrix null_space_basis(const qr_decomposition& f);

/// Minimum-norm least-squares solve of A x = b via column-pivoted QR on A
/// (complete orthogonal decomposition for the rank-deficient case).
/// Requires b.size() == a.rows(). The CSR solve (solve.hpp) returns
/// this on the system's dense image.
[[nodiscard]] lstsq_result solve_least_squares(const matrix& a,
                                               const std::vector<double>& b);

}  // namespace ntom

#include "ntom/linalg/solve.hpp"

#include <cassert>

#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/qr.hpp"

namespace ntom {

lstsq_result solve_least_squares(const matrix& a,
                                 const std::vector<double>& b) {
  assert(b.size() == a.rows());
  const std::size_t n = a.cols();
  lstsq_result out;
  out.x.assign(n, 0.0);
  out.identifiable = bitvec(n);
  if (a.empty()) return out;

  // One Q-free factorization feeds the whole solve: the reflectors are
  // applied to b as they are formed (c = Q^T b) and the same R/perm/rank
  // then yield the null-space basis. The explicit m x m Q the naive
  // route materializes is quadratic in the equation count — hundreds of
  // megabytes for the pair-equation systems the Independence estimator
  // stages — while everything the solve needs from it is this one
  // product.
  std::vector<double> c = b;
  const qr_decomposition f = qr_factorize_apply(a, c);
  const std::size_t k = f.rank;
  out.rank = k;

  // Solve R11 y1 = c1 with free coordinates zero (basic solution in the
  // pivoted ordering).
  std::vector<double> y(n, 0.0);
  for (std::size_t i = k; i-- > 0;) {
    double s = c[i];
    for (std::size_t j = i + 1; j < k; ++j) s -= f.r(i, j) * y[j];
    y[i] = s / f.r(i, i);
  }
  for (std::size_t j = 0; j < n; ++j) out.x[f.perm[j]] = y[j];

  // Project away any null-space component -> minimum-norm solution, and
  // flag which coordinates the measurements actually determine.
  const matrix nsp = null_space_basis(f);
  if (nsp.cols() > 0) {
    // x <- x - N (N^T x); N has orthonormal columns.
    std::vector<double> coeff(nsp.cols(), 0.0);
    for (std::size_t j = 0; j < nsp.cols(); ++j) {
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) s += nsp(i, j) * out.x[i];
      coeff[j] = s;
    }
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < nsp.cols(); ++j) s += nsp(i, j) * coeff[j];
      out.x[i] -= s;
    }
  }
  out.identifiable = identifiable_coordinates(nsp);
  return out;
}

lstsq_result solve_least_squares(const sparse_matrix& a,
                                 const std::vector<double>& b) {
  return solve_least_squares(a.to_dense(), b);
}

}  // namespace ntom

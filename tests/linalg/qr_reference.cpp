#include "qr_reference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dense_ops.hpp"

namespace ntom::testing_oracle {

namespace {

/// Core column-pivoted Householder loop. Writes R, perm, rank, and
/// tolerance into `out`. The explicit Q is accumulated only when
/// `q` is non-null; when `rhs` is non-null the transposed reflector
/// sequence is applied to it in place (rhs <- Q^T rhs). Both consumers
/// see bit-identical R/perm/rank — the reflector arithmetic on R does
/// not depend on what Q is used for.
void factorize_core(const matrix& a, matrix* q, std::vector<double>* rhs,
                    qr_decomposition& out) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (q != nullptr) *q = matrix::identity(m);
  out.r = a;
  out.perm.resize(n);
  for (std::size_t j = 0; j < n; ++j) out.perm[j] = j;

  // Squared column norms of the trailing submatrix, used for pivoting.
  std::vector<double> col_norm2(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      col_norm2[j] += out.r(i, j) * out.r(i, j);
    }
  }

  const std::size_t steps = std::min(m, n);
  for (std::size_t k = 0; k < steps; ++k) {
    // Pivot: bring the largest remaining column to position k.
    std::size_t pivot = k;
    for (std::size_t j = k + 1; j < n; ++j) {
      if (col_norm2[j] > col_norm2[pivot]) pivot = j;
    }
    if (pivot != k) {
      testing_dense::swap_columns(out.r, k, pivot);
      std::swap(col_norm2[k], col_norm2[pivot]);
      std::swap(out.perm[k], out.perm[pivot]);
    }

    // Householder vector for column k below the diagonal.
    double norm_x = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_x += out.r(i, k) * out.r(i, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;

    const double alpha = out.r(k, k) >= 0.0 ? -norm_x : norm_x;
    std::vector<double> v(m - k, 0.0);
    v[0] = out.r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = out.r(i, k);
    double vnorm2 = 0.0;
    for (const double x : v) vnorm2 += x * x;
    if (vnorm2 == 0.0) continue;

    // Apply H = I - 2 v v^T / (v^T v) to R (columns k..n) ...
    for (std::size_t j = k; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i - k] * out.r(i, j);
      s = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) out.r(i, j) -= s * v[i - k];
    }
    // ... accumulate into Q (Q <- Q H, acting on columns k..m of Q) ...
    if (q != nullptr) {
      for (std::size_t i = 0; i < m; ++i) {
        double s = 0.0;
        for (std::size_t j = k; j < m; ++j) s += (*q)(i, j) * v[j - k];
        s = 2.0 * s / vnorm2;
        for (std::size_t j = k; j < m; ++j) (*q)(i, j) -= s * v[j - k];
      }
    }
    // ... and to the right-hand side (rhs <- H rhs, so the finished
    // vector is H_s ... H_1 rhs = Q^T rhs).
    if (rhs != nullptr) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i - k] * (*rhs)[i];
      s = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) (*rhs)[i] -= s * v[i - k];
    }

    // Exact zeros below the diagonal and updated trailing norms.
    out.r(k, k) = alpha;
    for (std::size_t i = k + 1; i < m; ++i) out.r(i, k) = 0.0;
    for (std::size_t j = k + 1; j < n; ++j) {
      col_norm2[j] -= out.r(k, j) * out.r(k, j);
      if (col_norm2[j] < 0.0) col_norm2[j] = 0.0;
    }
  }

  double max_diag = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    max_diag = std::max(max_diag, std::abs(out.r(k, k)));
  }
  out.tolerance = rank_rel_tol * std::max(max_diag, 1.0);
  // Rank: the leading run of diagonals above the tolerance.
  out.rank = 0;
  while (out.rank < steps &&
         std::abs(out.r(out.rank, out.rank)) > out.tolerance) {
    ++out.rank;
  }
}

}  // namespace

reference_qr qr_factorize(const matrix& a) {
  reference_qr out;
  factorize_core(a, &out.q, nullptr, out.f);
  return out;
}

qr_decomposition qr_factorize_apply(const matrix& a,
                                    std::vector<double>& rhs) {
  assert(rhs.size() == a.rows());
  qr_decomposition out;
  factorize_core(a, nullptr, &rhs, out);
  return out;
}

}  // namespace ntom::testing_oracle

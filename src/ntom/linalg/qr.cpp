#include "ntom/linalg/qr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ntom/util/simd/simd.hpp"

namespace ntom {

namespace {

/// Q-free pivoted Householder QR in row order (contract in qr.hpp). When
/// `rhs` is non-null, also applies the reflectors to it: rhs <- Q^T rhs.
qr_decomposition factorize_rows(const matrix& a, double rel_tol,
                                std::vector<double>* rhs) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  qr_decomposition out;
  out.r = a;
  out.perm.resize(n);
  for (std::size_t j = 0; j < n; ++j) out.perm[j] = j;

  // Squared column norms of the trailing submatrix, used for pivoting.
  std::vector<double> col_norm2(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = out.r.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) col_norm2[j] += row[j] * row[j];
  }

  // Per-call scratch: grid cells factor concurrently.
  std::vector<std::size_t> rows;
  std::vector<double> v;
  std::vector<double> s(n);

  const std::size_t steps = std::min(m, n);
  for (std::size_t k = 0; k < steps; ++k) {
    // Pivot: bring the largest remaining column to position k.
    std::size_t pivot = k;
    for (std::size_t j = k + 1; j < n; ++j) {
      if (col_norm2[j] > col_norm2[pivot]) pivot = j;
    }
    if (pivot != k) {
      out.r.swap_columns(k, pivot);
      std::swap(col_norm2[k], col_norm2[pivot]);
      std::swap(out.perm[k], out.perm[pivot]);
    }

    // Householder vector for column k below the diagonal, kept on row k
    // and the nonzero rows: a zero v_i adds exact zeros to every sum.
    rows.clear();
    v.clear();
    double norm_x = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      const double x = out.r(i, k);
      if (x == 0.0 && i != k) continue;
      rows.push_back(i);
      v.push_back(x);
      norm_x += x * x;
    }
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;

    const double alpha = out.r(k, k) >= 0.0 ? -norm_x : norm_x;
    v[0] = out.r(k, k) - alpha;
    double vnorm2 = 0.0;
    for (const double x : v) vnorm2 += x * x;
    if (vnorm2 == 0.0) continue;

    // Apply H = I - 2 v v^T / (v^T v) to R's trailing columns: dot pass
    // s += v_i R(i, :), then update pass R(i, :) += (-v_i) (2 s / v^T v).
    const std::size_t first = k + 1;
    const std::size_t width = n - first;
    std::fill(s.begin() + first, s.end(), 0.0);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      simd::axpy(s.data() + first, v[t], out.r.row_ptr(rows[t]) + first,
                 width);
    }
    for (std::size_t j = first; j < n; ++j) s[j] = 2.0 * s[j] / vnorm2;
    for (std::size_t t = 0; t < rows.size(); ++t) {
      double* row = out.r.row_ptr(rows[t]);
      simd::axpy(row + first, -v[t], s.data() + first, width);
      row[k] = 0.0;
    }
    out.r(k, k) = alpha;

    // Same reflector on the right-hand side (rhs <- H rhs, so the
    // finished vector is H_s ... H_1 rhs = Q^T rhs).
    if (rhs != nullptr) {
      std::vector<double>& b = *rhs;
      double sb = 0.0;
      for (std::size_t t = 0; t < rows.size(); ++t) sb += v[t] * b[rows[t]];
      sb = 2.0 * sb / vnorm2;
      for (std::size_t t = 0; t < rows.size(); ++t) b[rows[t]] -= sb * v[t];
    }

    const double* row_k = out.r.row_ptr(k);
    for (std::size_t j = first; j < n; ++j) {
      col_norm2[j] -= row_k[j] * row_k[j];
      if (col_norm2[j] < 0.0) col_norm2[j] = 0.0;
    }
  }

  double max_diag = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    max_diag = std::max(max_diag, std::abs(out.r(k, k)));
  }
  out.tolerance = rel_tol * std::max(max_diag, 1.0);
  out.rank = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    if (std::abs(out.r(k, k)) > out.tolerance) ++out.rank;
  }
  return out;
}

}  // namespace

qr_decomposition qr_factorize_apply(const matrix& a, std::vector<double>& rhs,
                                    double rel_tol) {
  assert(rhs.size() == a.rows());
  return factorize_rows(a, rel_tol, &rhs);
}

std::size_t matrix_rank(const matrix& a, double rel_tol) {
  if (a.empty()) return 0;
  return factorize_rows(a, rel_tol, nullptr).rank;
}

matrix null_space_basis(const qr_decomposition& f) {
  const std::size_t n = f.r.cols();
  const std::size_t r = f.rank;
  const std::size_t k = n - r;
  if (k == 0) return matrix(n, 0);

  // Built transposed: basis vector j is the contiguous row j of `vt`, so
  // Gram-Schmidt walks every vector with stride 1. Each entry sees the
  // same operations in the same order as in a column-at-a-time loop over
  // the n x k result (tests/tomo/pathset_select_reference), so the two
  // compare equal (==).
  matrix vt(k, n);
  std::vector<double> y(n);

  // For each free column j (pivoted index r+j), back-substitute
  // R11 * y1 = -R12[:, j] and scatter through the permutation.
  for (std::size_t j = 0; j < k; ++j) {
    std::fill(y.begin(), y.end(), 0.0);
    y[r + j] = 1.0;
    for (std::size_t i = r; i-- > 0;) {
      double s = f.r(i, r + j);
      for (std::size_t c = i + 1; c < r; ++c) s += f.r(i, c) * y[c];
      y[i] = -s / f.r(i, i);
    }
    double* v = vt.row_ptr(j);
    for (std::size_t c = 0; c < n; ++c) v[f.perm[c]] = y[c];
  }

  // Modified Gram-Schmidt for a well-conditioned basis.
  for (std::size_t j = 0; j < k; ++j) {
    double* v = vt.row_ptr(j);
    for (std::size_t prev = 0; prev < j; ++prev) {
      const double* u = vt.row_ptr(prev);
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) proj += v[i] * u[i];
      for (std::size_t i = 0; i < n; ++i) v[i] -= proj * u[i];
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm += v[i] * v[i];
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (std::size_t i = 0; i < n; ++i) v[i] /= norm;
    }
  }
  return vt.transposed();
}

matrix null_space_basis(const matrix& a, double rel_tol) {
  const std::size_t n = a.cols();
  if (a.rows() == 0) return matrix::identity(n);
  return null_space_basis(factorize_rows(a, rel_tol, nullptr));
}

}  // namespace ntom

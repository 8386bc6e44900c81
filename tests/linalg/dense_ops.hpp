// Dense products, norms and column reads the linear-algebra tests check
// results with (A x ~ 0, Q R = A P, orthonormal bases), and the dense-row
// forms of the rank test and of Algorithm 2 the sparse-row library
// functions are checked against. The library has no use for them: its
// kernels walk rows through matrix::row_ptr, and its rows are 0/1
// index lists.
#pragma once

#include <cassert>
#include <cmath>
#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/qr.hpp"

namespace ntom::testing_dense {

/// Column c of A.
inline std::vector<double> column(const matrix& a, std::size_t c) {
  std::vector<double> out(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) out[r] = a(r, c);
  return out;
}

/// A * x; x.size() must equal a.cols().
inline std::vector<double> multiply(const matrix& a,
                                    const std::vector<double>& x) {
  assert(x.size() == a.cols());
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) sum += a(r, c) * x[c];
    out[r] = sum;
  }
  return out;
}

/// A * B; a.cols() must equal b.rows().
inline matrix multiply(const matrix& a, const matrix& b) {
  assert(a.cols() == b.rows());
  matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += a(i, k) * b(k, j);
      }
    }
  }
  return out;
}

inline double dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

inline double norm2(const std::vector<double>& v) {
  return std::sqrt(dot(v, v));
}

/// Swaps columns a and b of M in place (the oracles' column pivoting).
inline void swap_columns(matrix& m, std::size_t a, std::size_t b) {
  for (std::size_t r = 0; r < m.rows(); ++r) std::swap(m(r, a), m(r, b));
}

/// Numerical rank of A, as the library's factorization reports it.
inline std::size_t rank(const matrix& a) {
  std::vector<double> rhs(a.rows(), 0.0);
  return qr_factorize_apply(a, rhs).rank;
}

/// r . N per column, r given densely.
inline std::vector<double> row_products(const std::vector<double>& r,
                                        const matrix& n) {
  assert(r.size() == n.rows());
  std::vector<double> rn(n.cols(), 0.0);
  for (std::size_t j = 0; j < n.cols(); ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < n.rows(); ++i) s += r[i] * n(i, j);
    rn[j] = s;
  }
  return rn;
}

/// r . N per column for the 0/1 row with ones at `row_indices`, summed
/// in ascending row order as the library sums it.
inline std::vector<double> row_products(
    const std::vector<std::size_t>& row_indices, const matrix& n) {
  std::vector<double> rn(n.cols(), 0.0);
  for (const std::size_t i : row_indices) {
    for (std::size_t j = 0; j < n.cols(); ++j) rn[j] += n(i, j);
  }
  return rn;
}

/// ||r x N||_inf: the largest |r . column of N|, for either row form.
template <typename Row>
double row_nullspace_product(const Row& r, const matrix& n) {
  double best = 0.0;
  for (const double x : row_products(r, n)) best = std::max(best, std::abs(x));
  return best;
}

/// The library's rank test for a dense row r.
inline bool row_increases_rank(const std::vector<double>& r, const matrix& n) {
  return n.cols() > 0 && row_nullspace_product(r, n) > null_space_tol;
}

/// Algorithm 2 for a dense row r, with the library's operations in the
/// library's order (ntom::null_space_update), one column at a time
/// into a fresh matrix: the pivot column (largest |r . col|) moves to
/// the front, N'_j = N_j - N_1 (r.N_j)/(r.N_1), then each column is
/// renormalized. N comes back unchanged when r adds no rank.
inline matrix null_space_update(const matrix& n, const std::vector<double>& r) {
  std::vector<double> rn = row_products(r, n);
  const std::size_t rows = n.rows();
  const std::size_t p = n.cols();
  if (p == 0) return n;
  std::size_t pivot = 0;
  for (std::size_t j = 1; j < p; ++j) {
    if (std::abs(rn[j]) > std::abs(rn[pivot])) pivot = j;
  }
  if (std::abs(rn[pivot]) <= null_space_tol) return n;
  matrix swapped = n;
  swap_columns(swapped, 0, pivot);
  std::swap(rn[0], rn[pivot]);
  matrix out(rows, p - 1);
  const double inv = 1.0 / rn[0];
  for (std::size_t j = 1; j < p; ++j) {
    const double scale = rn[j] * inv;
    for (std::size_t i = 0; i < rows; ++i) {
      out(i, j - 1) = swapped(i, j) - scale * swapped(i, 0);
    }
  }
  for (std::size_t j = 0; j + 1 < p; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < rows; ++i) norm += out(i, j) * out(i, j);
    norm = std::sqrt(norm);
    if (norm > null_space_tol) {
      for (std::size_t i = 0; i < rows; ++i) out(i, j) /= norm;
    }
  }
  return out;
}

}  // namespace ntom::testing_dense

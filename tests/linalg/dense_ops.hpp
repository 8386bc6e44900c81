// Dense products, norms and column reads the linear-algebra tests check
// results with (A x ~ 0, Q R = A P, orthonormal bases). The library has
// no use for them: its kernels walk rows through matrix::row_ptr.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "ntom/linalg/matrix.hpp"
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

}  // namespace ntom::testing_dense

#include "ntom/linalg/nullspace.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ntom/linalg/qr.hpp"

namespace ntom {

matrix null_space_basis(const sparse_matrix& a) {
  return null_space_basis(a.to_dense());
}

bool row_increases_rank(const std::vector<std::size_t>& row_indices,
                        const matrix& n) {
  // r . N a stack block of columns at a time, each product summing the
  // rows of `row_indices` in ascending order (as null_space_update
  // does): no heap buffer, and the first column above the threshold
  // ends the test.
  constexpr std::size_t block = 64;
  double rn[block];
  for (std::size_t j0 = 0; j0 < n.cols(); j0 += block) {
    const std::size_t bn = std::min(block, n.cols() - j0);
    std::fill(rn, rn + bn, 0.0);
    for (const std::size_t i : row_indices) {
      assert(i < n.rows());
      const double* row = n.row_ptr(i) + j0;
      for (std::size_t j = 0; j < bn; ++j) rn[j] += row[j];
    }
    for (std::size_t j = 0; j < bn; ++j) {
      if (std::abs(rn[j]) > null_space_tol) return true;
    }
  }
  return false;
}

matrix null_space_update(matrix n,
                         const std::vector<std::size_t>& row_indices) {
  const std::size_t rows = n.rows();
  const std::size_t p = n.cols();
  if (p == 0) return n;

  // r . N per column: each product is a sum of nnz entries of N instead
  // of a length-n dot.
  std::vector<double> rn(p, 0.0);
  for (const std::size_t i : row_indices) {
    assert(i < rows);
    const double* row = n.row_ptr(i);
    for (std::size_t j = 0; j < p; ++j) rn[j] += row[j];
  }

  std::size_t pivot = 0;
  for (std::size_t j = 1; j < p; ++j) {
    if (std::abs(rn[j]) > std::abs(rn[pivot])) pivot = j;
  }
  // r adds no rank; N unchanged.
  if (std::abs(rn[pivot]) <= null_space_tol) return n;
  std::swap(rn[0], rn[pivot]);

  // N' columns: N_j - N_1 * (r.N_j) / (r.N_1), for j = 2..p, after the
  // pivot column moved to the front. Computed row by row, so rows are
  // read and written with stride 1, into N's own storage: entry (i, j-1)
  // of N' is stored before entry (i, j) of N, so it only overwrites
  // entries already read. Each column's squared norm still sums its
  // rows in ascending order, so N' compares equal (==) to a
  // column-at-a-time evaluation (tests/tomo/pathset_select_reference).
  const double inv = 1.0 / rn[0];
  std::vector<double> scale(p - 1);
  for (std::size_t j = 1; j < p; ++j) scale[j - 1] = rn[j] * inv;
  std::vector<double> norm(p - 1, 0.0);
  double* const out = n.row_ptr(0);
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = n.row_ptr(i);
    std::swap(row[0], row[pivot]);
    const double first = row[0];
    double* updated = out + i * (p - 1);
    for (std::size_t j = 1; j < p; ++j) {
      const double x = row[j] - scale[j - 1] * first;
      updated[j - 1] = x;
      norm[j - 1] += x * x;
    }
  }
  n.reshape(rows, p - 1);

  // Re-normalize columns to keep the basis well-scaled across many updates.
  for (double& x : norm) x = std::sqrt(x);
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = n.row_ptr(i);
    for (std::size_t j = 0; j + 1 < p; ++j) {
      if (norm[j] > null_space_tol) row[j] /= norm[j];
    }
  }
  return n;
}

std::vector<std::size_t> row_hamming_weights(const matrix& n) {
  std::vector<std::size_t> weights(n.rows(), 0);
  for (std::size_t i = 0; i < n.rows(); ++i) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < n.cols(); ++j) {
      if (std::abs(n(i, j)) > null_space_tol) ++w;
    }
    weights[i] = w;
  }
  return weights;
}

bitvec identifiable_coordinates(const matrix& n) {
  bitvec out(n.rows());
  for (std::size_t i = 0; i < n.rows(); ++i) {
    bool clean = true;
    for (std::size_t j = 0; j < n.cols(); ++j) {
      if (std::abs(n(i, j)) > identifiable_tol) {
        clean = false;
        break;
      }
    }
    if (clean) out.set(i);
  }
  return out;
}

}  // namespace ntom

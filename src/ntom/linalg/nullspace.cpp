#include "ntom/linalg/nullspace.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ntom {

namespace {

/// r . N per column, r given densely.
std::vector<double> column_products(const std::vector<double>& r,
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

/// r . N per column for a 0/1 row with ones at `row_indices`: each
/// product is a sum of nnz entries of N instead of a length-n dot.
std::vector<double> column_products(const std::vector<std::size_t>& row_indices,
                                    const matrix& n) {
  std::vector<double> rn(n.cols(), 0.0);
  for (const std::size_t i : row_indices) {
    assert(i < n.rows());
    const double* row = n.row_ptr(i);
    for (std::size_t j = 0; j < n.cols(); ++j) rn[j] += row[j];
  }
  return rn;
}

double max_abs_of(const std::vector<double>& xs) noexcept {
  double best = 0.0;
  for (const double x : xs) best = std::max(best, std::abs(x));
  return best;
}

matrix apply_null_space_update(matrix n, std::vector<double> rn, double tol);

}  // namespace

double row_nullspace_product(const std::vector<double>& r,
                             const matrix& n) {
  return max_abs_of(column_products(r, n));
}

double row_nullspace_product(const std::vector<std::size_t>& row_indices,
                             const matrix& n) {
  return max_abs_of(column_products(row_indices, n));
}

bool row_increases_rank(const std::vector<double>& r, const matrix& n,
                        double tol) {
  if (n.cols() == 0) return false;
  return row_nullspace_product(r, n) > tol;
}

bool row_increases_rank(const std::vector<std::size_t>& row_indices,
                        const matrix& n, double tol) {
  // The products of column_products, a stack block of columns at a
  // time: each r . N_j sums the same entries in the same order, so the
  // answer equals row_nullspace_product(...) > tol without a heap
  // buffer, and the first column above tol ends the test.
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
      if (std::abs(rn[j]) > tol) return true;
    }
  }
  return false;
}

matrix null_space_update(matrix n, const std::vector<double>& r, double tol) {
  assert(r.size() == n.rows());
  std::vector<double> rn = column_products(r, n);
  return apply_null_space_update(std::move(n), std::move(rn), tol);
}

matrix null_space_update(matrix n, const std::vector<std::size_t>& row_indices,
                         double tol) {
  std::vector<double> rn = column_products(row_indices, n);
  return apply_null_space_update(std::move(n), std::move(rn), tol);
}

namespace {

matrix apply_null_space_update(matrix n, std::vector<double> rn, double tol) {
  const std::size_t rows = n.rows();
  const std::size_t p = n.cols();
  if (p == 0) return n;

  std::size_t pivot = 0;
  for (std::size_t j = 1; j < p; ++j) {
    if (std::abs(rn[j]) > std::abs(rn[pivot])) pivot = j;
  }
  if (std::abs(rn[pivot]) <= tol) return n;  // r adds no rank; N unchanged.
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
      if (norm[j] > tol) row[j] /= norm[j];
    }
  }
  return n;
}

}  // namespace

std::vector<std::size_t> row_hamming_weights(const matrix& n, double tol) {
  std::vector<std::size_t> weights(n.rows(), 0);
  for (std::size_t i = 0; i < n.rows(); ++i) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < n.cols(); ++j) {
      if (std::abs(n(i, j)) > tol) ++w;
    }
    weights[i] = w;
  }
  return weights;
}

bitvec identifiable_coordinates(const matrix& n, double tol) {
  bitvec out(n.rows());
  for (std::size_t i = 0; i < n.rows(); ++i) {
    bool clean = true;
    for (std::size_t j = 0; j < n.cols(); ++j) {
      if (std::abs(n(i, j)) > tol) {
        clean = false;
        break;
      }
    }
    if (clean) out.set(i);
  }
  return out;
}

}  // namespace ntom

// Sparse row-major (CSR) matrix for the tomographic equation systems.
//
// Eq. 1 rows are 0/1 indicators over the subset catalog scaled by a
// per-equation weight, so a row is fully described by its ascending
// column indices plus one value. Assembling systems in this form keeps
// equation building O(nnz) per row instead of O(catalog.size()) — the
// dense image is materialized exactly once, inside the solver, where
// the QR factorization needs it anyway.
#pragma once

#include <cstddef>
#include <vector>

#include "ntom/linalg/matrix.hpp"

namespace ntom {

/// Compressed-sparse-row matrix of doubles. Rows are append-only.
class sparse_matrix {
 public:
  sparse_matrix() = default;

  /// Fixes the column count up front (rows may leave columns unused).
  explicit sparse_matrix(std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept {
    return row_start_.size() - 1;
  }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows() == 0 || cols_ == 0; }

  /// Appends a row whose entries at `indices` (ascending, < cols()) all
  /// share `value` — the shape of a weighted 0/1 equation row.
  void append_row(const std::vector<std::size_t>& indices, double value = 1.0);

  /// Dense image (rows() x cols()); the solver's staging step.
  [[nodiscard]] matrix to_dense() const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_{0};  ///< size rows()+1.
  std::vector<std::size_t> col_;
  std::vector<double> val_;
};

}  // namespace ntom

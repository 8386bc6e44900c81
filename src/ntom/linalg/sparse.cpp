#include "ntom/linalg/sparse.hpp"

#include <cassert>

namespace ntom {

sparse_matrix::sparse_matrix(std::size_t cols) : cols_(cols) {}

void sparse_matrix::append_row(const std::vector<std::size_t>& indices,
                               double value) {
  for (const std::size_t i : indices) {
    assert(i < cols_);
    col_.push_back(i);
    val_.push_back(value);
  }
  row_start_.push_back(col_.size());
}

matrix sparse_matrix::to_dense() const {
  matrix out(rows(), cols_);
  for (std::size_t r = 0; r < rows(); ++r) {
    double* row = out.row_ptr(r);
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      row[col_[k]] = val_[k];
    }
  }
  return out;
}

}  // namespace ntom

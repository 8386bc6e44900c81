#include "ntom/linalg/matrix.hpp"

#include <cassert>

namespace ntom {

matrix::matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

matrix::matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    assert(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

matrix matrix::identity(std::size_t n) {
  matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void matrix::append_row(const std::vector<double>& row) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  assert(row.size() == cols_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

matrix matrix::transposed() const {
  matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

void matrix::reshape(std::size_t rows, std::size_t cols) {
  assert(rows * cols <= data_.size());
  data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

}  // namespace ntom

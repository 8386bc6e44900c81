#include "ntom/linalg/matrix.hpp"

#include <cassert>
#include <cmath>
#include <sstream>

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

std::vector<double> matrix::get_row(std::size_t r) const {
  return {row_ptr(r), row_ptr(r) + cols_};
}

std::vector<double> matrix::get_col(std::size_t c) const {
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

matrix matrix::transposed() const {
  matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

matrix matrix::multiply(const matrix& other) const {
  assert(cols_ == other.rows_);
  matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.row_ptr(k);
      double* orow = out.row_ptr(i);
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

std::vector<double> matrix::multiply(const std::vector<double>& v) const {
  assert(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = row_ptr(r);
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) sum += row[c] * v[c];
    out[r] = sum;
  }
  return out;
}

std::vector<double> matrix::left_multiply(const std::vector<double>& v) const {
  assert(v.size() == rows_);
  std::vector<double> out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    const double* row = row_ptr(r);
    for (std::size_t c = 0; c < cols_; ++c) out[c] += vr * row[c];
  }
  return out;
}

matrix matrix::columns(std::size_t first, std::size_t count) const {
  assert(first + count <= cols_);
  matrix out(rows_, count);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < count; ++c) out(r, c) = (*this)(r, first + c);
  }
  return out;
}

void matrix::swap_columns(std::size_t a, std::size_t b) noexcept {
  if (a == b) return;
  for (std::size_t r = 0; r < rows_; ++r) std::swap((*this)(r, a), (*this)(r, b));
}

void matrix::reshape(std::size_t rows, std::size_t cols) {
  assert(rows * cols <= data_.size());
  data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

double matrix::frobenius_norm() const noexcept {
  double sum = 0.0;
  for (const double x : data_) sum += x * x;
  return std::sqrt(sum);
}

double matrix::max_abs() const noexcept {
  double best = 0.0;
  for (const double x : data_) best = std::max(best, std::abs(x));
  return best;
}

std::string matrix::to_string() const {
  std::ostringstream ss;
  ss.precision(4);
  for (std::size_t r = 0; r < rows_; ++r) {
    ss << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      ss << (*this)(r, c);
      if (c + 1 != cols_) ss << ", ";
    }
    ss << (r + 1 == rows_ ? "]" : ";\n");
  }
  return ss.str();
}

double norm2(const std::vector<double>& v) noexcept {
  double sum = 0.0;
  for (const double x : v) sum += x * x;
  return std::sqrt(sum);
}

double dot(const std::vector<double>& a, const std::vector<double>& b) noexcept {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

void axpy(std::vector<double>& a, double scale,
          const std::vector<double>& b) noexcept {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += scale * b[i];
}

}  // namespace ntom

// Dense row-major double matrix — the storage behind the tomographic
// equation systems: the dense image the QR (linalg/qr.hpp) factorizes
// through row_ptr(), and the null-space bases Algorithm 1 updates in
// place. Auditable, not peak-FLOPs.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace ntom {

/// Dense matrix of doubles, row-major storage.
class matrix {
 public:
  matrix() = default;

  /// rows x cols, zero-initialized.
  matrix(std::size_t rows, std::size_t cols);

  /// From nested initializer list; all rows must have equal length.
  matrix(std::initializer_list<std::initializer_list<double>> init);

  [[nodiscard]] static matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row r (contiguous, cols() doubles).
  [[nodiscard]] double* row_ptr(std::size_t r) noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] const double* row_ptr(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  /// Appends a row; `row.size()` must equal cols() (or the matrix must be
  /// empty, in which case it adopts the row's length).
  void append_row(const std::vector<double>& row);

  [[nodiscard]] matrix transposed() const;

  /// Keeps the first rows * cols stored values, read in row-major order
  /// as a rows x cols matrix, without reallocating; rows * cols must not
  /// exceed rows() * cols(). For kernels that compact a matrix in place
  /// through row_ptr(0).
  void reshape(std::size_t rows, std::size_t cols);

  [[nodiscard]] bool operator==(const matrix& other) const noexcept = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace ntom

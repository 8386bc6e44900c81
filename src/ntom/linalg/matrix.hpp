// Dense row-major double matrix — the numerical workhorse behind the
// tomographic equation systems: BLAS-1/2 style operations, transpose
// products, and the row_ptr() rows the row-order QR (linalg/qr.hpp)
// walks, equal (==) to a column-order loop. Auditable, not peak-FLOPs.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
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

  [[nodiscard]] std::vector<double> get_row(std::size_t r) const;
  [[nodiscard]] std::vector<double> get_col(std::size_t c) const;

  [[nodiscard]] matrix transposed() const;

  /// this * other. Dimensions must agree.
  [[nodiscard]] matrix multiply(const matrix& other) const;

  /// this * v. v.size() must equal cols().
  [[nodiscard]] std::vector<double> multiply(const std::vector<double>& v) const;

  /// v^T * this. v.size() must equal rows().
  [[nodiscard]] std::vector<double> left_multiply(
      const std::vector<double>& v) const;

  /// Column submatrix [first, first+count).
  [[nodiscard]] matrix columns(std::size_t first, std::size_t count) const;

  void swap_columns(std::size_t a, std::size_t b) noexcept;

  /// Keeps the first rows * cols stored values, read in row-major order
  /// as a rows x cols matrix, without reallocating; rows * cols must not
  /// exceed rows() * cols(). For kernels that compact a matrix in place
  /// through row_ptr(0).
  void reshape(std::size_t rows, std::size_t cols);

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Largest |entry|.
  [[nodiscard]] double max_abs() const noexcept;

  [[nodiscard]] bool operator==(const matrix& other) const noexcept = default;

  /// Multi-line human-readable dump (tests / debugging).
  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
[[nodiscard]] double norm2(const std::vector<double>& v) noexcept;

/// Dot product; sizes must agree.
[[nodiscard]] double dot(const std::vector<double>& a,
                         const std::vector<double>& b) noexcept;

/// a += scale * b (sizes must agree).
void axpy(std::vector<double>& a, double scale,
          const std::vector<double>& b) noexcept;

}  // namespace ntom

// Packed 2-D bit matrix: the columnar observation store.
//
// The measured quantities of Probability Computation are interval-bit-set
// reductions — P(all paths in P good) is one AND + popcount across rows —
// so the whole experiment's observations live in ONE contiguous word
// array (row-major, 64-bit words, stride = ceil(cols/64)) instead of a
// vector of individually heap-allocated bitvecs. Rows are cache-resident
// views; the fused kernels (and_count, full_rows) stream the
// words once without materializing intermediate sets; transpose() flips
// the orientation in 64x64 blocks for interval-major <-> path-major
// conversions of streamed chunks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ntom/util/bitvec.hpp"

namespace ntom {

class bit_matrix {
 public:
  bit_matrix() = default;

  /// All-zero matrix of `rows` x `cols` bits.
  bit_matrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Words per row (the row stride of the contiguous storage).
  [[nodiscard]] std::size_t word_stride() const noexcept { return stride_; }

  /// Heap footprint of the packed storage, for memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

  [[nodiscard]] bool test(std::size_t r, std::size_t c) const noexcept {
    return (row_words(r)[c / 64] >> (c % 64)) & 1ULL;
  }
  void set(std::size_t r, std::size_t c) noexcept {
    row_words(r)[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  void reset(std::size_t r, std::size_t c) noexcept {
    row_words(r)[c / 64] &= ~(std::uint64_t{1} << (c % 64));
  }

  /// Row views: the packed words of row r (stride() words).
  [[nodiscard]] const std::uint64_t* row_words(std::size_t r) const noexcept {
    return words_.data() + r * stride_;
  }
  [[nodiscard]] std::uint64_t* row_words(std::size_t r) noexcept {
    return words_.data() + r * stride_;
  }

  /// Row r as an owning bitvec over the column universe.
  [[nodiscard]] bitvec row_copy(std::size_t r) const;

  /// Overwrites row r; `row.size()` must equal cols().
  void set_row(std::size_t r, const bitvec& row) noexcept;

  /// Column c as an owning bitvec over the row universe.
  [[nodiscard]] bitvec column_copy(std::size_t c) const;

  /// Number of set bits in row r.
  [[nodiscard]] std::size_t count_row(std::size_t r) const noexcept;

  /// Total set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// Fused kernel: popcount of the AND of the selected rows, streamed
  /// word-by-word (unrolled specializations for 1-3 rows) — no
  /// intermediate bitvec is materialized. Empty selection returns
  /// cols() (an empty AND is vacuously all-ones). `row_set` is a
  /// bit-set over rows.
  [[nodiscard]] std::size_t and_count(const bitvec& row_set) const;

  /// Rows whose every column bit is set (bit-set over rows). A matrix
  /// with zero columns reports every row as full.
  [[nodiscard]] bitvec full_rows() const;

  /// Complements every bit (column bits beyond cols() stay zero).
  void flip_all() noexcept;

  /// Splices `src` into row r starting at column `col_offset`
  /// (col_offset + src.size() must fit in cols()). This is the chunk ->
  /// columnar-store write path: word-shifting, no per-bit loop.
  void write_row_bits(std::size_t r, std::size_t col_offset,
                      const bitvec& src) noexcept;
  void write_row_bits(std::size_t r, std::size_t col_offset,
                      const std::uint64_t* src_words,
                      std::size_t nbits) noexcept;

  /// Copies all rows of `src` (same cols()) into rows
  /// [dst_row_begin, dst_row_begin + src.rows()) — a stride-aligned
  /// memcpy per row block.
  void copy_rows_from(const bit_matrix& src, std::size_t dst_row_begin);

  /// Rows [begin, end) as a new matrix.
  [[nodiscard]] bit_matrix row_slice(std::size_t begin, std::size_t end) const;

  /// Columns [begin, end) as a new matrix (word-shifting splice per row).
  [[nodiscard]] bit_matrix column_slice(std::size_t begin,
                                        std::size_t end) const;

  /// The transpose, built via 64x64 bit-block transposition.
  [[nodiscard]] bit_matrix transposed() const;

  /// In-place orientation flip: *this becomes its transpose. (Uses one
  /// transposed-size scratch buffer internally, then swaps — the object
  /// identity and capacity-free contract stay "in place".)
  void transpose();

  [[nodiscard]] bool operator==(const bit_matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           words_ == other.words_;
  }

 private:
  /// Mask of the valid bits in the last word of a row (all-ones when
  /// cols is a multiple of 64 or zero).
  [[nodiscard]] std::uint64_t tail_mask() const noexcept {
    return (cols_ % 64 == 0) ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << (cols_ % 64)) - 1;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ntom

#include "ntom/util/bit_matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "ntom/util/rng.hpp"

namespace ntom {
namespace {

/// Deterministic pseudo-random fill (odd sizes stress the tail masks).
bit_matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  bit_matrix m(rows, cols);
  rng rand(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rand.next_u64() & 1) m.set(r, c);
    }
  }
  return m;
}

TEST(BitMatrixTest, SetTestResetRoundTrip) {
  bit_matrix m(3, 130);
  EXPECT_FALSE(m.test(2, 129));
  m.set(2, 129);
  EXPECT_TRUE(m.test(2, 129));
  EXPECT_FALSE(m.test(1, 129));
  EXPECT_FALSE(m.test(2, 128));
  m.reset(2, 129);
  EXPECT_FALSE(m.test(2, 129));
}

TEST(BitMatrixTest, RowAndColumnCopies) {
  const bit_matrix m = random_matrix(7, 91, 3);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const bitvec row = m.row_copy(r);
    ASSERT_EQ(row.size(), m.cols());
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(row.test(c), m.test(r, c));
    }
    EXPECT_EQ(row.count(), m.count_row(r));
  }
  for (std::size_t c = 0; c < m.cols(); ++c) {
    const bitvec col = m.column_copy(c);
    ASSERT_EQ(col.size(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(col.test(r), m.test(r, c));
    }
  }
}

TEST(BitMatrixTest, SetRowMatchesRowCopy) {
  bit_matrix m(4, 77);
  bitvec row(77);
  row.set(0);
  row.set(63);
  row.set(64);
  row.set(76);
  m.set_row(2, row);
  EXPECT_EQ(m.row_copy(2), row);
  EXPECT_EQ(m.count_row(2), 4u);
  EXPECT_EQ(m.count(), 4u);
}

TEST(BitMatrixTest, TransposeMatchesNaive) {
  using extent = std::pair<std::size_t, std::size_t>;
  for (const auto& [rows, cols] :
       {extent{5, 9}, extent{64, 64}, extent{65, 127}, extent{130, 3},
        extent{1, 200}}) {
    const bit_matrix m = random_matrix(rows, cols, rows * 1000 + cols);
    const bit_matrix t = m.transposed();
    ASSERT_EQ(t.rows(), cols);
    ASSERT_EQ(t.cols(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(t.test(c, r), m.test(r, c)) << rows << "x" << cols;
      }
    }
    bit_matrix round = t;
    round.transpose();
    EXPECT_TRUE(round == m);
  }
}

TEST(BitMatrixTest, AndCountMatchesExplicitAnd) {
  const bit_matrix m = random_matrix(9, 203, 11);
  for (std::uint32_t mask = 0; mask < 512; mask += 37) {
    bitvec rows(9);
    for (std::size_t r = 0; r < 9; ++r) {
      if (mask & (1u << r)) rows.set(r);
    }
    bitvec acc(203);
    acc.flip();  // all-ones identity for AND.
    rows.for_each_set([&](std::size_t r) { acc &= m.row_copy(r); });
    EXPECT_EQ(m.and_count(rows), acc.count()) << "mask " << mask;
  }
  EXPECT_EQ(m.and_count(bitvec(9)), 203u);  // vacuous AND.
}

TEST(BitMatrixTest, FullRowsAndOrOfRows) {
  bit_matrix m(3, 70);
  for (std::size_t c = 0; c < 70; ++c) m.set(1, c);
  m.set(0, 5);
  const bitvec full = m.full_rows();
  EXPECT_FALSE(full.test(0));
  EXPECT_TRUE(full.test(1));
  EXPECT_FALSE(full.test(2));
  bitvec any(70);
  for (std::size_t r = 0; r < m.rows(); ++r) any |= m.row_copy(r);
  EXPECT_EQ(any.count(), 70u);
  // Zero-column matrices report every row full (vacuous truth).
  EXPECT_EQ(bit_matrix(4, 0).full_rows().count(), 4u);
}

TEST(BitMatrixTest, FlipAllMasksTail) {
  bit_matrix m(2, 67);
  m.set(0, 0);
  m.flip_all();
  EXPECT_FALSE(m.test(0, 0));
  EXPECT_EQ(m.count_row(0), 66u);
  EXPECT_EQ(m.count_row(1), 67u);
  m.flip_all();
  EXPECT_EQ(m.count(), 1u);
  EXPECT_TRUE(m.test(0, 0));
}

TEST(BitMatrixTest, WriteRowBitsSplicesAtAnyOffset) {
  for (const std::size_t offset : {0u, 1u, 63u, 64u, 65u, 100u}) {
    bit_matrix m(1, 200);
    m.flip_all();  // all ones; the splice must overwrite, not just OR.
    bitvec src(70);
    src.set(0);
    src.set(69);
    m.write_row_bits(0, offset, src);
    for (std::size_t c = 0; c < 200; ++c) {
      const bool in_window = c >= offset && c < offset + 70;
      const bool expect =
          in_window ? (c == offset || c == offset + 69) : true;
      ASSERT_EQ(m.test(0, c), expect) << "offset " << offset << " col " << c;
    }
  }
}

TEST(BitMatrixTest, RowAndColumnSlices) {
  const bit_matrix m = random_matrix(11, 137, 29);
  const bit_matrix rows = m.row_slice(3, 8);
  ASSERT_EQ(rows.rows(), 5u);
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_EQ(rows.row_copy(r), m.row_copy(3 + r));
  }
  using range = std::pair<std::size_t, std::size_t>;
  for (const auto& [begin, end] :
       {range{0, 137}, range{1, 66}, range{64, 128}, range{70, 71},
        range{130, 137}}) {
    const bit_matrix cols = m.column_slice(begin, end);
    ASSERT_EQ(cols.cols(), end - begin);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = begin; c < end; ++c) {
        ASSERT_EQ(cols.test(r, c - begin), m.test(r, c))
            << begin << ".." << end;
      }
    }
  }
}

TEST(BitMatrixTest, CopyRowsFrom) {
  const bit_matrix src = random_matrix(4, 99, 5);
  bit_matrix dst(10, 99);
  dst.copy_rows_from(src, 3);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(dst.row_copy(3 + r), src.row_copy(r));
  }
  EXPECT_EQ(dst.count_row(0), 0u);
  EXPECT_EQ(dst.count_row(8), 0u);
}

}  // namespace
}  // namespace ntom

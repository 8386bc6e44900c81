#include "ntom/linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "dense_ops.hpp"
#include "ntom/util/rng.hpp"

namespace ntom {
namespace {

using testing_dense::column;
using testing_dense::multiply;

TEST(MatrixTest, ZeroInitialized) {
  matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(MatrixTest, InitializerList) {
  matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, Identity) {
  const matrix eye = matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(eye(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, AppendRowGrowsAndAdoptsWidth) {
  matrix m;
  m.append_row({1.0, 2.0, 3.0});
  m.append_row({4.0, 5.0, 6.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 6.0);
}

TEST(MatrixTest, RowAndColumnExtraction) {
  matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(std::vector<double>(m.row_ptr(1), m.row_ptr(1) + m.cols()),
            (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(column(m, 2), (std::vector<double>{3, 6}));
}

TEST(MatrixTest, Transpose) {
  matrix m{{1, 2, 3}, {4, 5, 6}};
  const matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(0, 1), 4.0);
  EXPECT_EQ(t(2, 0), 3.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(MatrixTest, MatrixMultiply) {
  matrix a{{1, 2}, {3, 4}};
  matrix b{{5, 6}, {7, 8}};
  const matrix c = multiply(a, b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, IdentityIsMultiplicativeNeutral) {
  matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(multiply(a, matrix::identity(3)), a);
  EXPECT_EQ(multiply(matrix::identity(2), a), a);
}

TEST(MatrixTest, VectorMultiply) {
  matrix a{{1, 2}, {3, 4}, {5, 6}};
  const std::vector<double> ones{1.0, 1.0};
  EXPECT_EQ(multiply(a, ones), (std::vector<double>{3, 7, 11}));
}

TEST(MatrixTest, SwapColumns) {
  matrix a{{1, 2}, {3, 4}};
  testing_dense::swap_columns(a, 0, 1);
  EXPECT_EQ(a(0, 0), 2.0);
  EXPECT_EQ(a(1, 1), 3.0);
  testing_dense::swap_columns(a, 1, 1);  // no-op.
  EXPECT_EQ(a(1, 1), 3.0);
}

TEST(MatrixTest, ReshapeKeepsLeadingValuesInRowOrder) {
  matrix a{{1, 2, 3}, {4, 5, 6}};
  a.reshape(2, 2);
  EXPECT_EQ(a, (matrix{{1, 2}, {3, 4}}));
  a.reshape(1, 3);
  EXPECT_EQ(a, (matrix{{1, 2, 3}}));
  a.reshape(3, 0);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 0u);
}

TEST(VectorOpsTest, NormDotAxpy) {
  EXPECT_DOUBLE_EQ(testing_dense::norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(testing_dense::dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
}

// (A·B)^T == B^T·A^T on random matrices.
class MatrixPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatrixPropertyTest, TransposeOfProduct) {
  rng r(GetParam());
  const std::size_t m = 1 + r.uniform_index(8);
  const std::size_t k = 1 + r.uniform_index(8);
  const std::size_t n = 1 + r.uniform_index(8);
  matrix a(m, k), b(k, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) a(i, j) = r.uniform(-2, 2);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = r.uniform(-2, 2);

  const matrix lhs = multiply(a, b).transposed();
  const matrix rhs = multiply(b.transposed(), a.transposed());
  ASSERT_EQ(lhs.rows(), rhs.rows());
  ASSERT_EQ(lhs.cols(), rhs.cols());
  for (std::size_t i = 0; i < lhs.rows(); ++i) {
    for (std::size_t j = 0; j < lhs.cols(); ++j) {
      EXPECT_NEAR(lhs(i, j), rhs(i, j), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MatrixPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace ntom

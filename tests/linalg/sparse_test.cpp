#include "ntom/linalg/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/qr.hpp"
#include "ntom/linalg/solve.hpp"
#include "ntom/util/rng.hpp"
#include "dense_ops.hpp"

namespace ntom {
namespace {

sparse_matrix random_sparse(std::size_t rows, std::size_t cols, double density,
                            std::uint64_t seed) {
  rng rand(seed);
  sparse_matrix m(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> idx;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rand.bernoulli(density)) idx.push_back(c);
    }
    m.append_row(idx, rand.uniform(0.5, 2.0));
  }
  return m;
}

TEST(SparseMatrixTest, AppendUniformRow) {
  sparse_matrix m(4);
  m.append_row({0, 2}, 3.0);
  m.append_row({}, 1.0);
  m.append_row({1, 2, 3});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.to_dense(), (matrix{{3.0, 0.0, 3.0, 0.0},
                                  {0.0, 0.0, 0.0, 0.0},
                                  {0.0, 1.0, 1.0, 1.0}}));
}

TEST(SparseMatrixTest, ToDenseMatchesEntries) {
  sparse_matrix m(3);
  m.append_row({1}, 2.0);
  m.append_row({0, 2}, 1.0);
  const matrix d = m.to_dense();
  EXPECT_EQ(d, (matrix{{0.0, 2.0, 0.0}, {1.0, 0.0, 1.0}}));
}

TEST(SparseSolveTest, MatchesDenseLeastSquaresBitForBit) {
  // The sparse overload must agree exactly with the dense one — the
  // batch engine's determinism guarantee leans on this.
  const sparse_matrix a = random_sparse(12, 6, 0.3, 23);
  rng rand(24);
  std::vector<double> b(a.rows());
  for (auto& x : b) x = -rand.uniform();

  const lstsq_result sparse = solve_least_squares(a, b);
  const lstsq_result dense = solve_least_squares(a.to_dense(), b);
  EXPECT_EQ(sparse.rank, dense.rank);
  EXPECT_EQ(sparse.x, dense.x);
  EXPECT_EQ(sparse.identifiable, dense.identifiable);
  // Equal x, so equal residuals ||A x - b||.
  const matrix d = a.to_dense();
  const auto residual = [&](const std::vector<double>& x) {
    const std::vector<double> ax = testing_dense::multiply(d, x);
    double res = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      res += (ax[i] - b[i]) * (ax[i] - b[i]);
    }
    return std::sqrt(res);
  };
  EXPECT_DOUBLE_EQ(residual(sparse.x), residual(dense.x));
}

TEST(SparseNullspaceTest, SparseRowOpsMatchDenseRowOps) {
  const matrix a{{1, 1, 0, 0}, {0, 0, 1, 1}};
  const matrix n = null_space_basis(a);
  ASSERT_EQ(n.cols(), 2u);

  // 0/1 row {x0, x2} in both encodings.
  const std::vector<std::size_t> sparse_row = {0, 2};
  const std::vector<double> dense_row = {1.0, 0.0, 1.0, 0.0};

  EXPECT_DOUBLE_EQ(row_nullspace_product(sparse_row, n),
                   row_nullspace_product(dense_row, n));
  EXPECT_EQ(row_increases_rank(sparse_row, n),
            row_increases_rank(dense_row, n));

  const matrix via_sparse = null_space_update(n, sparse_row);
  const matrix via_dense = null_space_update(n, dense_row);
  EXPECT_EQ(via_sparse, via_dense);
  EXPECT_EQ(via_sparse.cols(), n.cols() - 1);
}

TEST(SparseNullspaceTest, NoRankIncreaseLeavesBasisUntouched) {
  const matrix a{{1, 1, 0}};
  const matrix n = null_space_basis(a);
  // Row {x0, x1} is already in the row space.
  const matrix updated = null_space_update(n, std::vector<std::size_t>{0, 1});
  EXPECT_EQ(updated, n);
}

}  // namespace
}  // namespace ntom

#include "ntom/linalg/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>

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

/// A weighted 0/1 system of the shape the Eq. 1 builders emit, with the
/// redundancy tomography systems carry planted in it.
struct system_shape {
  const char* name;
  std::size_t rows;
  std::size_t cols;
  double density;         ///< per-entry chance of a 1 in a drawn row.
  std::size_t zero_cols;  ///< columns no row touches.
  std::size_t dup_cols;   ///< copies of other columns (links in series).
  std::size_t dup_rows;   ///< repeats of earlier rows' patterns.
};

void PrintTo(const system_shape& shape, std::ostream* os) {
  *os << shape.name;
}

/// Draws the system: rows weighted sqrt(count) with target
/// log(count / T) * weight for a count in 1..T, as log_system builds
/// them.
std::pair<sparse_matrix, std::vector<double>> draw_system(
    const system_shape& shape, std::uint64_t seed) {
  rng rand(seed);
  const std::size_t n = shape.cols;
  // Column roles: the first zero_cols of a shuffled order stay empty,
  // the next dup_cols copy a random live column.
  std::vector<std::size_t> order(n);
  for (std::size_t c = 0; c < n; ++c) order[c] = c;
  for (std::size_t c = n; c > 1; --c) {
    std::swap(order[c - 1], order[rand.uniform_index(c)]);
  }
  const std::size_t live = n - shape.zero_cols - shape.dup_cols;
  std::vector<std::size_t> source(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t first_dup = shape.zero_cols;
    const std::size_t first_live = shape.zero_cols + shape.dup_cols;
    source[order[k]] = k < first_dup    ? n
                       : k < first_live ? order[first_live +
                                                rand.uniform_index(live)]
                                        : order[k];
  }
  std::vector<std::vector<bool>> patterns;
  for (std::size_t r = 0; r < shape.rows; ++r) {
    std::vector<bool> base(n);
    for (std::size_t c = 0; c < n; ++c) base[c] = rand.bernoulli(shape.density);
    std::vector<bool> row(n);
    for (std::size_t c = 0; c < n; ++c) row[c] = source[c] < n && base[source[c]];
    patterns.push_back(std::move(row));
  }
  for (std::size_t k = 0; k < shape.dup_rows; ++k) {
    const std::size_t at = rand.uniform_index(patterns.size() + 1);
    std::vector<bool> copy = patterns[rand.uniform_index(patterns.size())];
    patterns.insert(patterns.begin() + static_cast<std::ptrdiff_t>(at),
                    std::move(copy));
  }
  constexpr std::size_t intervals = 1000;
  sparse_matrix a(n);
  std::vector<double> b;
  for (const std::vector<bool>& row : patterns) {
    std::vector<std::size_t> idx;
    for (std::size_t c = 0; c < n; ++c) {
      if (row[c]) idx.push_back(c);
    }
    const auto count = 1 + rand.uniform_index(intervals);
    const double weight = std::sqrt(static_cast<double>(count));
    a.append_row(idx, weight);
    b.push_back(std::log(static_cast<double>(count) / intervals) * weight);
  }
  return {std::move(a), std::move(b)};
}

class SparseSolveShapesTest : public ::testing::TestWithParam<
                            std::tuple<system_shape, std::uint64_t>> {};

TEST_P(SparseSolveShapesTest, MatchesDenseLeastSquaresBitForBit) {
  // The CSR solve must agree exactly with the dense solve of the
  // system's dense image — the batch engine's determinism guarantee
  // leans on this, and any reduction inside the CSR solve is held to
  // it.
  const auto& [shape, seed] = GetParam();
  const auto [a, b] = draw_system(shape, seed);
  const lstsq_result sparse = solve_least_squares(a, b);
  const lstsq_result dense = solve_least_squares(a.to_dense(), b);
  EXPECT_EQ(sparse.rank, dense.rank);
  EXPECT_EQ(sparse.x, dense.x);
  EXPECT_EQ(sparse.identifiable, dense.identifiable);
  EXPECT_LE(sparse.rank, shape.cols - shape.zero_cols - shape.dup_cols);
  if (shape.zero_cols + shape.dup_cols > 0) {
    EXPECT_LT(sparse.identifiable.count(), shape.cols);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseSolveShapesTest,
    ::testing::Combine(
        ::testing::Values(
            system_shape{"plain", 12, 6, 0.3, 0, 0, 0},
            system_shape{"zero_columns", 40, 20, 0.2, 6, 0, 0},
            system_shape{"series_columns", 40, 20, 0.2, 0, 7, 0},
            system_shape{"repeated_rows", 30, 15, 0.25, 0, 0, 20},
            system_shape{"wide", 10, 30, 0.2, 3, 4, 2},
            system_shape{"tomography", 1200, 300, 5.0 / 300.0, 60, 80, 400}),
        ::testing::Values<std::uint64_t>(23, 24, 25)),
    [](const ::testing::TestParamInfo<SparseSolveShapesTest::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SparseNullspaceTest, SparseRowOpsMatchDenseRowOps) {
  const matrix a{{1, 1, 0, 0}, {0, 0, 1, 1}};
  const matrix n = null_space_basis(a);
  ASSERT_EQ(n.cols(), 2u);

  // 0/1 row {x0, x2} in both encodings.
  const std::vector<std::size_t> sparse_row = {0, 2};
  const std::vector<double> dense_row = {1.0, 0.0, 1.0, 0.0};

  EXPECT_DOUBLE_EQ(testing_dense::row_nullspace_product(sparse_row, n),
                   testing_dense::row_nullspace_product(dense_row, n));
  EXPECT_EQ(row_increases_rank(sparse_row, n),
            testing_dense::row_increases_rank(dense_row, n));

  const matrix via_sparse = null_space_update(n, sparse_row);
  const matrix via_dense = testing_dense::null_space_update(n, dense_row);
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

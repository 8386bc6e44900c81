#include "ntom/linalg/nullspace.hpp"

#include <gtest/gtest.h>

#include "ntom/linalg/qr.hpp"
#include "ntom/util/rng.hpp"
#include "dense_ops.hpp"

namespace ntom {
namespace {

matrix random_binary(std::size_t rows, std::size_t cols, rng& r,
                     double density = 0.3) {
  matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = r.bernoulli(density) ? 1.0 : 0.0;
    }
  }
  return m;
}

TEST(RowNullspaceProductTest, DetectsRankIncrease) {
  // System: x0 + x1 = b. Null space spans (1,-1)/sqrt(2).
  const matrix a{{1, 1}};
  const matrix n = null_space_basis(a);
  ASSERT_EQ(n.cols(), 1u);

  // Row (1, 1) again: no rank increase.
  EXPECT_FALSE(row_increases_rank({0, 1}, n));
  // Row (1, 0): increases rank.
  EXPECT_TRUE(row_increases_rank({0}, n));
}

TEST(RowNullspaceProductTest, EmptyNullSpaceNeverIncreases) {
  const matrix a = matrix::identity(3);
  const matrix n = null_space_basis(a);
  EXPECT_EQ(n.cols(), 0u);
  EXPECT_FALSE(row_increases_rank({0, 1, 2}, n));
}

TEST(RowNullspaceProductTest, SparseTestSeesEveryColumnBlock) {
  // The sparse rank test sums r.N a stack block of columns at a time.
  // With a single column of N above the tolerance, wherever it sits
  // (block edges included), the test must agree with the full product.
  for (const std::size_t cols : {1u, 63u, 64u, 65u, 129u, 200u}) {
    for (std::size_t live = 0; live < cols; ++live) {
      matrix n(5, cols);
      for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < cols; ++j) n(i, j) = 1e-12;
      }
      n(1, live) = 0.5;
      n(3, live) = -0.25;
      for (const std::vector<std::size_t>& row :
           {std::vector<std::size_t>{1}, std::vector<std::size_t>{0, 2, 4},
            std::vector<std::size_t>{1, 3}}) {
        const bool want =
            testing_dense::row_nullspace_product(row, n) > null_space_tol;
        EXPECT_EQ(row_increases_rank(row, n), want)
            << cols << " columns, live column " << live;
      }
    }
  }
}

TEST(NullSpaceUpdateTest, ShrinksDimensionByOne) {
  const matrix a{{1, 1, 0}};
  matrix n = null_space_basis(a);
  ASSERT_EQ(n.cols(), 2u);
  n = null_space_update(n, {2});
  EXPECT_EQ(n.cols(), 1u);
  // Remaining basis is orthogonal to both constraints.
  const auto x = testing_dense::column(n, 0);
  EXPECT_NEAR(x[0] + x[1], 0.0, 1e-9);
  EXPECT_NEAR(x[2], 0.0, 1e-9);
}

TEST(NullSpaceUpdateTest, NoOpWhenRowAddsNoRank) {
  const matrix a{{1, 1, 0}};
  const matrix n = null_space_basis(a);
  const matrix updated = null_space_update(n, {0, 1});
  EXPECT_EQ(updated.cols(), n.cols());
}

TEST(RowHammingWeightsTest, CountsNonZeros) {
  matrix n{{0.5, 0.0}, {0.0, 0.0}, {0.1, -0.2}};
  const auto w = row_hamming_weights(n);
  EXPECT_EQ(w, (std::vector<std::size_t>{1, 0, 2}));
}

TEST(IdentifiableCoordinatesTest, ZeroRowsAreIdentifiable) {
  matrix n{{0.0, 0.0}, {1e-3, 0.0}, {0.0, 0.0}};
  const auto id = identifiable_coordinates(n);
  EXPECT_TRUE(id.test(0));
  EXPECT_FALSE(id.test(1));
  EXPECT_TRUE(id.test(2));
}

TEST(IdentifiableCoordinatesTest, EmptyNullSpaceAllIdentifiable) {
  matrix n(4, 0);
  const auto id = identifiable_coordinates(n);
  EXPECT_EQ(id.count(), id.size());
}

// The central property: Algorithm 2's incremental update spans the same
// space as a from-scratch null-space computation after appending rows.
class NullSpaceUpdatePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NullSpaceUpdatePropertyTest, MatchesRecomputedNullSpace) {
  rng r(GetParam());
  const std::size_t cols = 4 + r.uniform_index(16);
  const std::size_t initial_rows = 1 + r.uniform_index(cols);
  matrix a = random_binary(initial_rows, cols, r);
  matrix n = null_space_basis(a);

  for (int step = 0; step < 8; ++step) {
    // Random new 0/1 row; sometimes dependent, sometimes not.
    std::vector<double> row(cols, 0.0);
    std::vector<std::size_t> ones;
    for (std::size_t c = 0; c < cols; ++c) {
      if (r.bernoulli(0.3)) {
        row[c] = 1.0;
        ones.push_back(c);
      }
    }

    const bool increases = row_increases_rank(ones, n);
    const std::size_t rank_before = testing_dense::rank(a);
    a.append_row(row);
    const std::size_t rank_after = testing_dense::rank(a);
    EXPECT_EQ(increases, rank_after > rank_before)
        << "row_increases_rank disagrees with QR rank";

    n = null_space_update(n, ones);
    const matrix reference = null_space_basis(a);
    ASSERT_EQ(n.cols(), reference.cols()) << "dimension drift at step " << step;

    // Same subspace: every incremental basis vector must be killed by A
    // (A x = 0) — this pins the span without comparing bases directly.
    for (std::size_t j = 0; j < n.cols(); ++j) {
      const auto x = testing_dense::column(n, j);
      const double scale = testing_dense::norm2(x);
      ASSERT_GT(scale, 1e-12);
      const auto ax = testing_dense::multiply(a, x);
      EXPECT_LT(testing_dense::norm2(ax) / scale, 1e-6)
          << "incremental basis escaped the true null space";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, NullSpaceUpdatePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace ntom

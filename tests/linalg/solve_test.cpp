#include "ntom/linalg/solve.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ntom/linalg/qr.hpp"
#include "ntom/util/rng.hpp"
#include "dense_ops.hpp"

namespace ntom {
namespace {

using testing_dense::multiply;

/// ||A x - b||_2: the residual of a solve, computed from its x.
double residual_norm(const matrix& a, const std::vector<double>& x,
                     const std::vector<double>& b) {
  const std::vector<double> ax = multiply(a, x);
  double res = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    res += (ax[i] - b[i]) * (ax[i] - b[i]);
  }
  return std::sqrt(res);
}

TEST(UpperTriangularTest, SolvesBackSubstitution) {
  // A square upper-triangular system has the back-substitution answer.
  const matrix r{{2, 1}, {0, 4}};
  const auto sol = solve_least_squares(r, {5.0, 8.0});
  EXPECT_EQ(sol.rank, 2u);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-12);
  EXPECT_NEAR(sol.x[0], 1.5, 1e-12);
}

TEST(LeastSquaresTest, ExactSquareSystem) {
  const matrix a{{1, 1}, {1, -1}};
  const std::vector<double> b = {3.0, 1.0};
  const auto sol = solve_least_squares(a, b);
  EXPECT_EQ(sol.rank, 2u);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-10);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-10);
  EXPECT_NEAR(residual_norm(a, sol.x, b), 0.0, 1e-10);
  EXPECT_TRUE(sol.identifiable.test(0));
  EXPECT_TRUE(sol.identifiable.test(1));
}

TEST(LeastSquaresTest, OverdeterminedRegression) {
  // Fit y = 2x + 1 through noisy-free samples: exact recovery.
  matrix a;
  std::vector<double> b;
  for (const double x : {0.0, 1.0, 2.0, 3.0}) {
    a.append_row({x, 1.0});
    b.push_back(2.0 * x + 1.0);
  }
  const auto sol = solve_least_squares(a, b);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-10);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-10);
}

TEST(LeastSquaresTest, InconsistentSystemMinimizesResidual) {
  // x = 1 and x = 3 simultaneously: least squares gives x = 2.
  const matrix a{{1}, {1}};
  const std::vector<double> b = {1.0, 3.0};
  const auto sol = solve_least_squares(a, b);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-10);
  EXPECT_NEAR(residual_norm(a, sol.x, b), std::sqrt(2.0), 1e-10);
}

TEST(LeastSquaresTest, RankDeficientFlagsUnidentifiable) {
  // x0 + x1 = 2, twice. Minimum-norm solution: x0 = x1 = 1.
  const matrix a{{1, 1}, {1, 1}};
  const auto sol = solve_least_squares(a, {2.0, 2.0});
  EXPECT_EQ(sol.rank, 1u);
  EXPECT_FALSE(sol.identifiable.test(0));
  EXPECT_FALSE(sol.identifiable.test(1));
  EXPECT_NEAR(sol.x[0], 1.0, 1e-10);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-10);
}

TEST(LeastSquaresTest, MixedIdentifiability) {
  // x0 determined; x1, x2 only in sum.
  const matrix a{{1, 0, 0}, {0, 1, 1}};
  const auto sol = solve_least_squares(a, {5.0, 4.0});
  EXPECT_TRUE(sol.identifiable.test(0));
  EXPECT_FALSE(sol.identifiable.test(1));
  EXPECT_FALSE(sol.identifiable.test(2));
  EXPECT_NEAR(sol.x[0], 5.0, 1e-10);
  // Minimum-norm splits the sum evenly.
  EXPECT_NEAR(sol.x[1], 2.0, 1e-10);
  EXPECT_NEAR(sol.x[2], 2.0, 1e-10);
}

TEST(LeastSquaresTest, EmptySystem) {
  const matrix a;
  const auto sol = solve_least_squares(a, {});
  EXPECT_TRUE(sol.x.empty());
  EXPECT_EQ(sol.rank, 0u);
}

class LeastSquaresPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeastSquaresPropertyTest, RecoversConsistentSolutions) {
  rng r(GetParam());
  const std::size_t cols = 2 + r.uniform_index(10);
  const std::size_t rows = cols + r.uniform_index(10);
  matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = r.bernoulli(0.4) ? 1.0 : 0.0;
    }
  }
  std::vector<double> x_true(cols);
  for (auto& v : x_true) v = r.uniform(-2, 2);
  const auto b = multiply(a, x_true);

  const auto sol = solve_least_squares(a, b);
  // Consistent system: residual ~ 0 whatever the rank.
  EXPECT_LT(residual_norm(a, sol.x, b), 1e-7);

  // Identifiable coordinates are recovered exactly; the others satisfy
  // the system but may differ from x_true.
  for (std::size_t j = 0; j < cols; ++j) {
    if (sol.identifiable.test(j)) {
      EXPECT_NEAR(sol.x[j], x_true[j], 1e-6) << "identifiable coord " << j;
    }
  }

  // Minimum-norm: the solution is orthogonal to the null space.
  const matrix n = null_space_basis(a);
  for (std::size_t j = 0; j < n.cols(); ++j) {
    EXPECT_NEAR(testing_dense::dot(sol.x, testing_dense::column(n, j)), 0.0,
                1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, LeastSquaresPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace ntom

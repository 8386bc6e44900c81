#include "ntom/linalg/qr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "ntom/linalg/nullspace.hpp"
#include "ntom/util/rng.hpp"
#include "ntom/util/simd/simd.hpp"
#include "dense_ops.hpp"
#include "qr_reference.hpp"

namespace ntom {
namespace {

namespace oracle = testing_oracle;
namespace dense = testing_dense;
namespace simd = ntom::simd;

matrix random_matrix(std::size_t rows, std::size_t cols, rng& r,
                     double density = 1.0) {
  matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (r.bernoulli(density)) m(i, j) = r.uniform(-3, 3);
    }
  }
  return m;
}

/// Applies the column permutation to A and compares with Q*R.
void expect_factorization_valid(const matrix& a, const oracle::reference_qr& o,
                                double tol = 1e-9) {
  const qr_decomposition& f = o.f;
  const matrix qr = dense::multiply(o.q, f.r);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(qr(i, j), a(i, f.perm[j]), tol)
          << "mismatch at (" << i << "," << j << ")";
    }
  }
  // Q orthogonal: Q^T Q = I.
  const matrix qtq = dense::multiply(o.q.transposed(), o.q);
  for (std::size_t i = 0; i < qtq.rows(); ++i) {
    for (std::size_t j = 0; j < qtq.cols(); ++j) {
      EXPECT_NEAR(qtq(i, j), i == j ? 1.0 : 0.0, tol);
    }
  }
  // R upper triangular.
  for (std::size_t i = 0; i < f.r.rows(); ++i) {
    for (std::size_t j = 0; j < std::min(i, f.r.cols()); ++j) {
      EXPECT_NEAR(f.r(i, j), 0.0, tol);
    }
  }
}

/// Exact (==) comparison of two factorizations, naming the first
/// differing element of R.
void expect_identical(const qr_decomposition& got,
                      const qr_decomposition& want) {
  EXPECT_EQ(got.perm, want.perm);
  EXPECT_EQ(got.rank, want.rank);
  EXPECT_EQ(got.tolerance, want.tolerance);
  ASSERT_EQ(got.r.rows(), want.r.rows());
  ASSERT_EQ(got.r.cols(), want.r.cols());
  for (std::size_t i = 0; i < want.r.rows(); ++i) {
    for (std::size_t j = 0; j < want.r.cols(); ++j) {
      ASSERT_EQ(got.r(i, j), want.r(i, j)) << "R(" << i << "," << j << ")";
    }
  }
}

/// The library's factorization of A (with rhs b) matches the oracle's
/// `want` (with `want_qtb` = Q^T b) exactly: R, perm, rank, tolerance,
/// Q^T b, and the derived null-space basis.
void expect_matches(const matrix& a, const std::vector<double>& b,
                    const qr_decomposition& want,
                    const std::vector<double>& want_qtb) {
  std::vector<double> got_qtb = b;
  const qr_decomposition got = qr_factorize_apply(a, got_qtb);
  expect_identical(got, want);
  EXPECT_EQ(got_qtb, want_qtb);
  if (a.rows() > 0) {
    EXPECT_EQ(null_space_basis(a), null_space_basis(want));
  }
}

void expect_matches_oracle(const matrix& a, const std::vector<double>& b) {
  std::vector<double> want_qtb = b;
  const qr_decomposition want = oracle::qr_factorize_apply(a, want_qtb);
  expect_matches(a, b, want, want_qtb);
}

TEST(QrTest, IdentityFactorization) {
  const matrix eye = matrix::identity(4);
  const auto o = oracle::qr_factorize(eye);
  EXPECT_EQ(o.f.rank, 4u);
  expect_factorization_valid(eye, o);
  expect_matches_oracle(eye, std::vector<double>(4, 1.0));
}

TEST(QrTest, KnownRankDeficientMatrix) {
  // Row 3 = row 1 + row 2.
  const matrix a{{1, 0, 1}, {0, 1, 1}, {1, 1, 2}};
  const auto o = oracle::qr_factorize(a);
  EXPECT_EQ(o.f.rank, 2u);
  expect_factorization_valid(a, o);
  expect_matches_oracle(a, {1.0, -2.0, 0.5});
}

TEST(QrTest, ZeroMatrixHasRankZero) {
  const matrix a(3, 3);
  EXPECT_EQ(dense::rank(a), 0u);
}

TEST(QrTest, TallAndWideMatrices) {
  rng r(1);
  const matrix tall = random_matrix(8, 3, r);
  const matrix wide = random_matrix(3, 8, r);
  EXPECT_EQ(dense::rank(tall), 3u);
  EXPECT_EQ(dense::rank(wide), 3u);
  expect_factorization_valid(tall, oracle::qr_factorize(tall));
  expect_factorization_valid(wide, oracle::qr_factorize(wide));
  expect_matches_oracle(tall, std::vector<double>(8, -1.0));
  expect_matches_oracle(wide, std::vector<double>(3, -1.0));
}

TEST(QrTest, RankOfOuterProduct) {
  // u v^T always has rank 1.
  matrix a(5, 4);
  const double u[5] = {1, -2, 0.5, 3, 1};
  const double v[4] = {2, 1, -1, 0.25};
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = u[i] * v[j];
  }
  EXPECT_EQ(dense::rank(a), 1u);
}

TEST(NullSpaceTest, FullRankHasEmptyNullSpace) {
  rng r(2);
  const matrix a = random_matrix(6, 4, r);
  EXPECT_EQ(null_space_basis(a).cols(), 0u);
}

TEST(NullSpaceTest, ZeroRowsGiveIdentityNullSpace) {
  const matrix a(0, 0);
  // Degenerate: no constraints at all over an empty space.
  EXPECT_EQ(null_space_basis(a).cols(), 0u);
}

TEST(NullSpaceTest, KnownNullVector) {
  // A x = 0 for x = (1, 1, -1): columns c0 + c1 = c2.
  const matrix a{{1, 0, 1}, {0, 1, 1}};
  const matrix n = null_space_basis(a);
  ASSERT_EQ(n.cols(), 1u);
  // The basis vector must be parallel to (1, 1, -1)/sqrt(3).
  const double scale = n(0, 0);
  EXPECT_NEAR(n(1, 0), scale, 1e-9);
  EXPECT_NEAR(n(2, 0), -scale, 1e-9);
  EXPECT_NEAR(std::abs(scale), 1.0 / std::sqrt(3.0), 1e-9);
}

TEST(QrApplyTest, MatchesExplicitFactorization) {
  rng r(7);
  const matrix a = random_matrix(12, 5, r, 0.6);
  std::vector<double> b(a.rows());
  for (double& x : b) x = r.uniform(-2, 2);

  const auto full = oracle::qr_factorize(a);
  std::vector<double> c = b;
  const auto applied = qr_factorize_apply(a, c);

  // R, perm, rank come from the identical reflector arithmetic —
  // bit-for-bit equal, not merely close.
  expect_identical(applied, full.f);
  // The rhs came back as Q^T b.
  const matrix qt = full.q.transposed();
  const std::vector<double> qtb = dense::multiply(qt, b);
  ASSERT_EQ(c.size(), qtb.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], qtb[i], 1e-9);
  }
}

TEST(QrApplyTest, NullSpaceFromFactorizationMatchesDirect) {
  rng r(11);
  matrix a(9, 7);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = r.bernoulli(0.3) ? 1.0 : 0.0;
    }
  }
  std::vector<double> rhs(a.rows(), 1.0);
  const auto f = qr_factorize_apply(a, rhs);
  const matrix via_f = null_space_basis(f);
  const matrix direct = null_space_basis(a);
  ASSERT_EQ(via_f.rows(), direct.rows());
  ASSERT_EQ(via_f.cols(), direct.cols());
  for (std::size_t i = 0; i < direct.rows(); ++i) {
    for (std::size_t j = 0; j < direct.cols(); ++j) {
      EXPECT_EQ(via_f(i, j), direct(i, j));
    }
  }
}

// Property sweep over random (possibly rank-deficient) matrices.
class QrPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QrPropertyTest, FactorizationAndNullSpaceInvariants) {
  rng r(GetParam());
  const std::size_t rows = 1 + r.uniform_index(20);
  const std::size_t cols = 1 + r.uniform_index(20);
  // Low-density 0/1 matrices resemble the tomographic systems and are
  // often rank-deficient.
  matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = r.bernoulli(0.25) ? 1.0 : 0.0;
    }
  }

  const auto o = oracle::qr_factorize(a);
  const qr_decomposition& f = o.f;
  expect_factorization_valid(a, o, 1e-8);
  EXPECT_LE(f.rank, std::min(rows, cols));
  expect_matches_oracle(a, std::vector<double>(rows, -0.5));

  const matrix n = null_space_basis(a);
  EXPECT_EQ(n.cols(), cols - f.rank);

  // Every null-space column satisfies A x ~ 0 and has unit norm.
  for (std::size_t j = 0; j < n.cols(); ++j) {
    const auto x = dense::column(n, j);
    EXPECT_NEAR(dense::norm2(x), 1.0, 1e-8);
    const auto ax = dense::multiply(a, x);
    EXPECT_LT(dense::norm2(ax), 1e-7);
  }

  // Null-space columns are orthonormal.
  for (std::size_t i = 0; i < n.cols(); ++i) {
    for (std::size_t j = i + 1; j < n.cols(); ++j) {
      EXPECT_NEAR(dense::dot(dense::column(n, i), dense::column(n, j)), 0.0,
                  1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, QrPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 30));

// ------------------------------------------- row-order kernel vs oracle

/// Restores the entry dispatch level on scope exit so a failing sweep
/// cannot poison later tests.
struct level_guard {
  simd::level saved = simd::active_level();
  ~level_guard() { simd::set_level(saved); }
};

struct oracle_case {
  std::string name;
  matrix a;
  std::vector<double> b;
};

/// Weighted 0/1 rows as the estimators stage them: about `per_row` ones
/// per row, the row scaled by sqrt(count), rhs log(p) * sqrt(count).
oracle_case weighted_system(std::string name, std::size_t rows,
                            std::size_t cols, double per_row, rng& r) {
  oracle_case c{std::move(name), matrix(rows, cols), {}};
  const double density = cols == 0 ? 0.0 : std::min(1.0, per_row / cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const double weight =
        std::sqrt(static_cast<double>(1 + r.uniform_index(1000)));
    for (std::size_t j = 0; j < cols; ++j) {
      if (r.bernoulli(density)) c.a(i, j) = weight;
    }
    c.b.push_back(std::log(r.uniform(0.05, 1.0)) * weight);
  }
  return c;
}

std::vector<oracle_case> oracle_cases(std::uint64_t seed) {
  rng r(seed);
  std::vector<oracle_case> cases;
  cases.push_back(weighted_system("tall", 120, 17, 3, r));
  cases.push_back(weighted_system("wide", 9, 40, 6, r));
  cases.push_back(weighted_system("tomography", 400, 67, 5, r));
  cases.push_back(weighted_system("empty", 0, 6, 2, r));
  cases.push_back(weighted_system("one_row", 1, 9, 4, r));
  cases.push_back(weighted_system("one_col", 15, 1, 1, r));
  cases.push_back(weighted_system("dense", 20, 13, 13, r));

  // Rank-deficient: the last third of the rows are sums of two earlier
  // rows.
  oracle_case deficient = weighted_system("rank_deficient", 30, 24, 4, r);
  for (std::size_t i = 20; i < 30; ++i) {
    const std::size_t p = r.uniform_index(20);
    const std::size_t q = r.uniform_index(20);
    for (std::size_t j = 0; j < 24; ++j) {
      deficient.a(i, j) = deficient.a(p, j) + deficient.a(q, j);
    }
  }
  cases.push_back(std::move(deficient));

  // Every row twice, rhs included.
  const oracle_case half = weighted_system("", 25, 14, 3, r);
  oracle_case duplicated{"duplicate_rows", matrix(50, 14), {}};
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 14; ++j) duplicated.a(i, j) = half.a(i / 2, j);
    duplicated.b.push_back(half.b[i / 2]);
  }
  cases.push_back(std::move(duplicated));

  // All-zero rows and columns scattered through the system.
  oracle_case zeros = weighted_system("zero_rows_and_cols", 50, 20, 4, r);
  for (std::size_t i = 0; i < 50; i += 7) {
    for (std::size_t j = 0; j < 20; ++j) zeros.a(i, j) = 0.0;
  }
  for (const std::size_t j : {0u, 3u, 11u, 19u}) {
    for (std::size_t i = 0; i < 50; ++i) zeros.a(i, j) = 0.0;
  }
  cases.push_back(std::move(zeros));

  cases.push_back({"all_zero", matrix(8, 5), std::vector<double>(8, -1.0)});
  return cases;
}

/// A column whose trailing part is exactly zero while its downdated
/// norm stays positive: column 2 duplicates column 0, so reflector 0
/// leaves it zero below row 0 but leaves its norm at a rounding residue
/// above the small norms left in columns 3 and 4. Steps 0 and 1 are
/// live, step 2 pivots to column 2 and is skipped, and step 3 (column
/// 4) is live again and starts with a dot-only walk of its own, into a
/// dot buffer that reflector 0 left nonzero (column 4 is in its rows).
/// The rank is the leading run of live diagonals, 2, so the null-space
/// back substitution never divides by the dead pivot: the basis is
/// finite and leaves every coordinate from the dead pivot on
/// unidentifiable.
TEST(QrOracleTest, SkippedReflectorMidwayMatchesOracle) {
  level_guard guard;
  matrix a(6, 5);
  a(0, 0) = a(0, 2) = 1.0;
  a(1, 0) = a(1, 2) = 1.0;
  a(2, 1) = 1.0;
  a(3, 1) = -1.0;
  a(4, 3) = 1e-9;
  a(5, 3) = -2e-9;
  a(0, 4) = a(1, 4) = 0.5;
  a(4, 4) = 3e-10;
  a(5, 4) = 1e-10;
  const std::vector<double> b = {0.5, -1.0, 2.0, 0.25, -0.75, 1.5};
  std::vector<double> qtb = b;
  const qr_decomposition want = oracle::qr_factorize_apply(a, qtb);
  // The case really skips step 2 alone: R(2, 2) is an untouched zero
  // and the diagonal around it is not.
  ASSERT_EQ(want.perm, (std::vector<std::size_t>{0, 1, 2, 4, 3}));
  ASSERT_EQ(want.r(2, 2), 0.0);
  for (const std::size_t k : {0u, 1u, 3u, 4u}) {
    ASSERT_GT(std::abs(want.r(k, k)), want.tolerance);
  }
  EXPECT_EQ(want.rank, 2u);
  const matrix want_basis = null_space_basis(want);
  ASSERT_EQ(want_basis.cols(), 3u);
  for (std::size_t i = 0; i < want_basis.rows(); ++i) {
    for (std::size_t j = 0; j < want_basis.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(want_basis(i, j))) << i << "," << j;
    }
  }
  const bitvec identifiable = identifiable_coordinates(want_basis);
  for (std::size_t k = 2; k < 5; ++k) {
    EXPECT_FALSE(identifiable.test(want.perm[k])) << "column " << want.perm[k];
  }
  for (const simd::level l : simd::available_levels()) {
    ASSERT_TRUE(simd::set_level(l));
    SCOPED_TRACE(simd::level_name(l));
    expect_matches(a, b, want, qtb);
  }
}

/// Systems at the size the estimators stage (4-6k x 130-260 on the
/// benchmark networks): the oracle runs once per case, the library at
/// every level.
TEST(QrOracleTest, BenchmarkShapesMatchOracleAtEveryLevel) {
  level_guard guard;
  rng r(2024);
  std::vector<oracle_case> cases;
  cases.push_back(weighted_system("weighted_3000x200", 3000, 200, 5, r));

  // Rank-deficient and tall: 30 columns copy earlier ones (links that
  // are always probed together) and every fourth row repeats the row
  // before it.
  oracle_case deficient = weighted_system("rank_deficient_tall", 2000, 150,
                                          4, r);
  for (std::size_t j = 120; j < 150; ++j) {
    const std::size_t from = r.uniform_index(120);
    for (std::size_t i = 0; i < 2000; ++i) {
      deficient.a(i, j) = deficient.a(i, from);
    }
  }
  for (std::size_t i = 3; i < 2000; i += 4) {
    for (std::size_t j = 0; j < 150; ++j) {
      deficient.a(i, j) = deficient.a(i - 1, j);
    }
    deficient.b[i] = deficient.b[i - 1];
  }
  cases.push_back(std::move(deficient));

  for (const oracle_case& c : cases) {
    std::vector<double> qtb = c.b;
    const qr_decomposition want = oracle::qr_factorize_apply(c.a, qtb);
    if (c.name == "rank_deficient_tall") {
      EXPECT_LE(want.rank, 120u);
    }
    for (const simd::level l : simd::available_levels()) {
      ASSERT_TRUE(simd::set_level(l));
      SCOPED_TRACE(c.name + " level=" + simd::level_name(l));
      expect_matches(c.a, c.b, want, qtb);
    }
  }
}

TEST(QrOracleTest, RowOrderMatchesOracleAtEveryLevel) {
  level_guard guard;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (const oracle_case& c : oracle_cases(seed)) {
      for (const simd::level l : simd::available_levels()) {
        ASSERT_TRUE(simd::set_level(l));
        SCOPED_TRACE(c.name + " seed=" + std::to_string(seed) +
                     " level=" + simd::level_name(l));
        expect_matches_oracle(c.a, c.b);
      }
    }
  }
}

}  // namespace
}  // namespace ntom

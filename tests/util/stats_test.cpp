#include "ntom/util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ntom/util/rng.hpp"

namespace ntom {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  running_stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  running_stats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatsTest, KnownMoments) {
  running_stats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased.
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MatchesTwoPassComputation) {
  rng r(5);
  running_stats s;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-10, 10);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-9);
}

TEST(EmpiricalCdfTest, StepFunction) {
  empirical_cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdfTest, Quantiles) {
  empirical_cdf cdf({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
}

TEST(EmpiricalCdfTest, CdfIsMonotone) {
  rng r(9);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(r.uniform());
  empirical_cdf cdf(std::move(xs));
  double prev = -1.0;
  for (double x = 0.0; x <= 1.0; x += 0.01) {
    const double y = cdf.at(x);
    EXPECT_GE(y, prev);
    prev = y;
  }
}

}  // namespace
}  // namespace ntom

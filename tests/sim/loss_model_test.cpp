#include "ntom/sim/loss_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ntom {
namespace {

TEST(LossModelTest, GoodLossStaysBelowThreshold) {
  rng r(1);
  for (int i = 0; i < 5000; ++i) {
    const double loss = sample_link_loss(r, false);
    EXPECT_GE(loss, 0.0);
    EXPECT_LE(loss, default_loss_threshold);
  }
}

TEST(LossModelTest, CongestedLossExceedsThreshold) {
  rng r(2);
  for (int i = 0; i < 5000; ++i) {
    const double loss = sample_link_loss(r, true);
    EXPECT_GE(loss, default_loss_threshold);
    EXPECT_LE(loss, 1.0);
  }
}

TEST(LossModelTest, CustomThresholdRespected) {
  rng r(3);
  const double f = 0.05;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(sample_link_loss(r, false, f), f);
    EXPECT_GE(sample_link_loss(r, true, f), f);
  }
}

TEST(PathThresholdTest, SingleLinkEqualsF) {
  EXPECT_NEAR(path_congestion_threshold(1), default_loss_threshold, 1e-12);
}

TEST(PathThresholdTest, ComposesAcrossLinks) {
  // 1-(1-f)^d, monotone in d, < d*f.
  double prev = 0.0;
  for (std::size_t d = 1; d <= 10; ++d) {
    const double thr = path_congestion_threshold(d);
    EXPECT_GT(thr, prev);
    EXPECT_LT(thr, static_cast<double>(d) * default_loss_threshold + 1e-12);
    prev = thr;
  }
  EXPECT_NEAR(path_congestion_threshold(2), 1.0 - 0.99 * 0.99, 1e-12);
}

TEST(PathThresholdTest, ZeroLinksZeroThreshold) {
  EXPECT_DOUBLE_EQ(path_congestion_threshold(0), 0.0);
}

}  // namespace
}  // namespace ntom

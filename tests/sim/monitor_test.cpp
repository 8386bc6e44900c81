#include "ntom/sim/monitor.hpp"

#include <gtest/gtest.h>

namespace ntom {
namespace {

/// Hand-built experiment data: 3 paths over 4 intervals.
/// good matrix (path x interval):
///   p0: 1 1 0 1
///   p1: 1 0 0 1
///   p2: 1 1 1 1   (always good)
experiment_data make_data() {
  experiment_data data;
  data.intervals = 4;
  data.path_good = bit_matrix(3, 4);
  auto& g = data.path_good;
  g.set(0, 0); g.set(0, 1); g.set(0, 3);
  g.set(1, 0); g.set(1, 3);
  g.set(2, 0); g.set(2, 1); g.set(2, 2); g.set(2, 3);
  data.always_good_paths = bitvec(3);
  data.always_good_paths.set(2);
  return data;
}

TEST(PathObservationsTest, SinglePathCounts) {
  const auto data = make_data();
  const path_observations obs(data);
  bitvec p0(3);
  p0.set(0);
  EXPECT_EQ(obs.count_all_good(p0), 3u);
}

TEST(PathObservationsTest, JointCounts) {
  const auto data = make_data();
  const path_observations obs(data);
  bitvec p01(3);
  p01.set(0);
  p01.set(1);
  // Both good in intervals 0 and 3.
  EXPECT_EQ(obs.count_all_good(p01), 2u);
}

TEST(PathObservationsTest, EmptySetVacuouslyGood) {
  const auto data = make_data();
  const path_observations obs(data);
  EXPECT_EQ(obs.count_all_good(bitvec(3)), 4u);
}

TEST(PathObservationsTest, AlwaysGoodPassthrough) {
  const auto data = make_data();
  const path_observations obs(data);
  EXPECT_TRUE(obs.always_good_paths().test(2));
  EXPECT_FALSE(obs.always_good_paths().test(0));
}

TEST(PathObservationsTest, JointIsMonotoneInSetSize) {
  // Adding paths can only reduce the all-good count.
  const auto data = make_data();
  const path_observations obs(data);
  bitvec acc(3);
  std::size_t prev = obs.count_all_good(acc);
  for (path_id p = 0; p < 3; ++p) {
    acc.set(p);
    const std::size_t cur = obs.count_all_good(acc);
    EXPECT_LE(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace ntom

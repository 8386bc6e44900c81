#include "ntom/infer/bayes_map.hpp"

#include <gtest/gtest.h>

#include "ntom/exp/runner.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/topogen/toy.hpp"
#include "map_reference.hpp"

namespace ntom {
namespace {

using namespace topogen;
using testing_oracle::explains_observation;

bitvec paths(const topology& t, std::initializer_list<path_id> ids) {
  bitvec b(t.num_paths());
  for (const auto p : ids) b.set(p);
  return b;
}

TEST(MapIndependentTest, PicksHighProbabilityExplanation) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  // e2 and e3 are the usual suspects.
  std::vector<double> p(t.num_links(), 0.01);
  p[toy_e2] = 0.6;
  p[toy_e3] = 0.6;
  const bitvec sol = map_independent(t, obs, p);
  EXPECT_TRUE(sol.test(toy_e2));
  EXPECT_TRUE(sol.test(toy_e3));
  EXPECT_TRUE(explains_observation(t, obs, sol));
}

TEST(MapIndependentTest, MatchesExactEnumerationOnToy) {
  const topology t = make_toy(toy_case::case1);
  std::vector<double> p(t.num_links(), 0.0);
  p[toy_e1] = 0.30;
  p[toy_e2] = 0.05;
  p[toy_e3] = 0.25;
  p[toy_e4] = 0.10;
  for (std::uint32_t mask = 1; mask < 8; ++mask) {
    bitvec congested(t.num_paths());
    for (int b = 0; b < 3; ++b) {
      if (mask & (1u << b)) congested.set(static_cast<path_id>(b));
    }
    const auto obs = make_observation(t, congested);
    if (!explains_observation(t, obs, obs.candidate_links)) {
      continue;  // inconsistent observation: no valid explanation.
    }
    const bitvec greedy = map_independent(t, obs, p);
    const bitvec exact = testing_oracle::map_exact_independent(t, obs, p);
    EXPECT_TRUE(explains_observation(t, obs, greedy));
    // Greedy should match the exact MAP on this tiny instance.
    EXPECT_EQ(greedy, exact) << "observation mask " << mask;
  }
}

TEST(MapIndependentTest, PaperExampleWrongUnderCorrelation) {
  // §3.1: e2,e3 perfectly correlated with joint 0.3; e1 mildly
  // congested. Under Independence the estimates make {e1,e3} beat the
  // true {e2,e3}: p(e1) high from mis-attribution. We emulate the
  // mis-estimated marginals CLINK would compute and check the MAP step
  // prefers the wrong solution.
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  std::vector<double> p(t.num_links(), 0.0);
  // Independence-step estimates: correlation mass leaks onto e1.
  p[toy_e1] = 0.35;
  p[toy_e2] = 0.18;
  p[toy_e3] = 0.30;
  p[toy_e4] = 0.02;
  const bitvec sol = map_independent(t, obs, p);
  EXPECT_TRUE(sol.test(toy_e1));
  EXPECT_FALSE(sol.test(toy_e2));  // the miss the paper describes.
}

TEST(MapCorrelatedTest, JointEstimatesFixTheCorrelatedCase) {
  // Same observation, but the correlation-aware scorer knows
  // P(e2,e3 both congested) = 0.3 >> P(e1) P(e3): it should pick the
  // pair {e2,e3} and exonerate e1.
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));

  bitvec potcong(t.num_links());
  for (link_id e = 0; e < 4; ++e) potcong.set(e);
  subset_catalog catalog = subset_catalog::build(t, potcong);
  probability_estimates est(t, std::move(catalog), potcong);
  auto set_g = [&](std::initializer_list<link_id> links, double g) {
    bitvec b(t.num_links());
    for (const auto e : links) b.set(e);
    est.set_good_probability(est.catalog().find(b), g, true);
  };
  set_g({toy_e1}, 0.95);              // e1 rarely congested.
  set_g({toy_e2}, 0.70);
  set_g({toy_e3}, 0.70);
  set_g({toy_e2, toy_e3}, 0.70);      // perfect correlation.
  set_g({toy_e4}, 0.98);

  const bitvec sol = map_correlated(t, obs, est, est.to_link_estimates());
  EXPECT_TRUE(sol.test(toy_e2));
  EXPECT_TRUE(sol.test(toy_e3));
  EXPECT_TRUE(explains_observation(t, obs, sol));
}

TEST(MapCorrelatedTest, FallsBackGracefullyWithoutJoints) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1}));
  bitvec potcong(t.num_links());
  for (link_id e = 0; e < 4; ++e) potcong.set(e);
  subset_catalog catalog = subset_catalog::build(t, potcong);
  const probability_estimates est(t, std::move(catalog), potcong);  // nothing set.
  const bitvec sol = map_correlated(t, obs, est, est.to_link_estimates());
  EXPECT_TRUE(explains_observation(t, obs, sol));
}

TEST(MapExactTest, RefusesOversizedInstances) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  std::vector<double> p(t.num_links(), 0.2);
  const bitvec sol =
      testing_oracle::map_exact_independent(t, obs, p, /*max_candidates=*/2);
  EXPECT_TRUE(sol.empty());
}

TEST(MapIndependentTest, EmptyObservationEmptySolution) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, bitvec(t.num_paths()));
  const std::vector<double> p(t.num_links(), 0.3);
  EXPECT_TRUE(map_independent(t, obs, p).empty());
}

/// map_correlated against the uncached greedy it replaced, on a seeded
/// random Brite network under each Fig. 3 scenario, fully observed and
/// with every third path unprobed: every interval's solution must be
/// identical. The fallback count shows that marginal scoring, the
/// other branch of a move's delta, is exercised too.
class MapCorrelatedOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapCorrelatedOracleTest, MatchesUncachedGreedy) {
  for (const char* scenario :
       {"random_congestion", "no_independence", "no_stationarity"}) {
    run_config config;
    config.topo = "brite";
    config.topo_seed = GetParam();
    config.scenario = scenario;
    config.scenario_opts.seed = GetParam() + 100;
    config.sim.intervals = 300;
    const run_artifacts run = prepare_run(config);
    const topology& t = run.topo();
    const experiment_data& data = run.data;
    bitvec masked(t.num_paths());
    for (path_id p = 0; p < t.num_paths(); ++p) {
      if (p % 3 != 0) masked.set(p);
    }
    const correlation_complete_result fit =
        compute_correlation_complete(t, data);
    const link_estimates marginals = fit.estimates.to_link_estimates();

    std::size_t fallbacks = 0;
    std::size_t congested_intervals = 0;
    for (const bitvec& observed : {bitvec(), masked}) {
      for (std::size_t i = 0; i < data.intervals; ++i) {
        bitvec congested = data.congested_paths_at(i);
        if (!observed.empty()) congested &= observed;
        if (!congested.empty()) ++congested_intervals;
        const auto obs = make_observation(t, congested, observed);
        const bitvec got = map_correlated(t, obs, fit.estimates, marginals);
        const bitvec want = testing_oracle::map_correlated(
            t, obs, fit.estimates, marginals, &fallbacks);
        ASSERT_EQ(got, want) << scenario << " interval " << i
                             << (observed.empty() ? "" : " masked");
      }
    }
    EXPECT_GT(congested_intervals, 0u) << scenario;
    EXPECT_GT(fallbacks, 0u) << scenario;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapCorrelatedOracleTest,
                         ::testing::Values<std::uint64_t>(3, 10, 12));

}  // namespace
}  // namespace ntom

// The two Bayesian algorithms of Fig. 3, fitted and queried through
// their registry adapters (bayes-indep, bayes-corr), and the output
// digests that pin every Boolean estimator's per-interval solutions
// (sparsity included) on the fig3_brite benchmark networks.
#include <gtest/gtest.h>

#include "ntom/api/estimator.hpp"
#include "ntom/exp/metrics.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/infer/observation.hpp"
#include "ntom/topogen/toy.hpp"
#include "map_reference.hpp"

namespace ntom {
namespace {

using namespace topogen;
using testing_oracle::explains_observation;

congestion_model toy_model(const topology& t,
                           std::vector<std::pair<std::size_t, double>> qs) {
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.congestable_links = bitvec(t.num_links());
  for (const auto& [r, q] : qs) m.phase_q[0][r] = q;
  return m;
}

/// A registered estimator fitted on the store; `t` must outlive it.
std::unique_ptr<estimator> fitted(const char* name, const topology& t,
                                  const experiment_data& data) {
  std::unique_ptr<estimator> est = make_estimator(name);
  est->fit(t, data);
  return est;
}

inference_metrics score(const estimator& est, const experiment_data& data) {
  inference_scorer scorer;
  for (std::size_t i = 0; i < data.intervals; ++i) {
    scorer.add_interval(est.infer(data.congested_paths_at(i)),
                        data.true_links_at(i));
  }
  return scorer.result();
}

TEST(BayesIndependenceTest, AccurateOnIndependentLinks) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.3}, {3, 0.2}});
  sim_params sim;
  sim.intervals = 1500;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);

  const auto metrics = score(*fitted("bayes-indep", t, data), data);
  EXPECT_GT(metrics.detection_rate, 0.95);
  EXPECT_LT(metrics.false_positive_rate, 0.05);
}

TEST(BayesIndependenceTest, DegradesUnderPerfectCorrelation) {
  // §3.1: e2,e3 perfectly correlated plus an independent e1 that also
  // appears on both of e2's paths... the Independence step mis-splits
  // joints and the MAP step picks wrong solutions regularly.
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{4, 0.3}, {0, 0.25}});
  sim_params sim;
  sim.intervals = 2000;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);

  const auto indep_m = score(*fitted("bayes-indep", t, data), data);
  const auto corr_m = score(*fitted("bayes-corr", t, data), data);

  // The correlation-aware algorithm should dominate under correlation.
  EXPECT_GE(corr_m.detection_rate, indep_m.detection_rate - 0.02);
  EXPECT_LE(corr_m.false_positive_rate, indep_m.false_positive_rate + 0.02);
}

TEST(BayesCorrelationTest, AccurateOnCorrelatedToy) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{4, 0.3}});
  sim_params sim;
  sim.intervals = 1500;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);

  const auto metrics = score(*fitted("bayes-corr", t, data), data);
  EXPECT_GT(metrics.detection_rate, 0.9);
  EXPECT_LT(metrics.false_positive_rate, 0.1);
}

TEST(BayesInferencersTest, SolutionsExplainObservations) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.3}, {4, 0.25}});
  sim_params sim;
  sim.intervals = 300;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);

  const auto indep = fitted("bayes-indep", t, data);
  const auto corr = fitted("bayes-corr", t, data);
  for (std::size_t i = 0; i < data.intervals; ++i) {
    const bitvec congested = data.congested_paths_at(i);
    const auto obs = make_observation(t, congested);
    EXPECT_TRUE(explains_observation(t, obs, indep->infer(congested)));
    EXPECT_TRUE(explains_observation(t, obs, corr->infer(congested)));
  }
}

TEST(BayesInferencersTest, Step1Accessible) {
  // links() is step 1's output: the per-link probabilities the MAP
  // step scores with, estimated for the congested link e1.
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.3}});
  sim_params sim;
  sim.intervals = 500;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  for (const char* name : {"bayes-indep", "bayes-corr"}) {
    const link_estimates links = fitted(name, t, data)->links();
    ASSERT_EQ(links.congestion.size(), t.num_links()) << name;
    EXPECT_TRUE(links.estimated.test(toy_e1)) << name;
    EXPECT_GT(links.congestion[toy_e1], 0.0) << name;
  }
}

/// FNV-1a over every interval's solution (interval index, then the
/// congested link ids), so any change in any interval's output shows.
/// With a non-empty `observed` mask, each interval is queried as a
/// probe-budget interval: its congested paths are cut to the mask and
/// passed with it through infer(congested, observed).
std::uint64_t solution_digest(const estimator& est,
                              const experiment_data& data,
                              const bitvec& observed) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < data.intervals; ++i) {
    mix(i);
    bitvec congested = data.congested_paths_at(i);
    if (observed.empty()) {
      est.infer(congested).for_each(mix);
    } else {
      congested &= observed;
      est.infer(congested, observed).for_each(mix);
    }
  }
  return h;
}

/// Every other path (0, 2, 4, ...): the fixed mask of the masked pins.
bitvec every_other_path(const topology& t) {
  bitvec mask(t.num_paths());
  for (std::size_t p = 0; p < t.num_paths(); p += 2) mask.set(p);
  return mask;
}

/// Checks the digest of `name`'s per-interval output on a seeded Brite
/// run for each scenario of the fig3_brite benchmark workload, fully
/// observed or (`masked`) under every_other_path.
void expect_digests(
    const char* name,
    const std::vector<std::pair<const char*, std::uint64_t>>& pinned,
    bool masked = false) {
  for (const auto& [scenario, digest] : pinned) {
    run_config config;
    config.topo = "brite";
    config.topo_seed = 3;
    config.scenario = scenario;
    config.scenario_opts.seed = 8;
    config.sim.intervals = 300;
    const run_artifacts run = prepare_run(config);
    const auto est = fitted(name, run.topo(), run.data);
    const bitvec observed = masked ? every_other_path(run.topo()) : bitvec();
    EXPECT_EQ(solution_digest(*est, run.data, observed), digest) << scenario;
  }
}

TEST(BayesCorrelationTest, MapOutputDigestPinned) {
  // Recorded before the MAP state memo, the fit-time marginals and the
  // adapter-only fit path existed; none may change any interval's
  // solution.
  expect_digests("bayes-corr",
                 {{"random_congestion", 12152085123974048620ull},
                  {"no_independence", 10070951524194740713ull},
                  {"no_stationarity", 4925888261294497107ull}});
}

TEST(BayesIndependenceTest, MapOutputDigestPinned) {
  // Recorded when Bayes-Indep still had a store fit beside its
  // adapter; the adapter-only fit path must reproduce it.
  expect_digests("bayes-indep",
                 {{"random_congestion", 16089589956669207991ull},
                  {"no_independence", 6146801809148745488ull},
                  {"no_stationarity", 633630508133682309ull}});
}

// The pins below were recorded before the per-interval inference
// loops (observation, greedy covers, MAP moves) stopped copying
// bitvecs; that rewrite must not change any interval's solution.

TEST(SparsityTest, OutputDigestPinned) {
  expect_digests("sparsity",
                 {{"random_congestion", 11577687919996637809ull},
                  {"no_independence", 1113450855102098503ull},
                  {"no_stationarity", 7593301062544731048ull}});
}

TEST(SparsityTest, MaskedOutputDigestPinned) {
  expect_digests("sparsity",
                 {{"random_congestion", 9718346276775614205ull},
                  {"no_independence", 16978032754461900051ull},
                  {"no_stationarity", 1678705059971766377ull}},
                 /*masked=*/true);
}

TEST(BayesIndependenceTest, MaskedOutputDigestPinned) {
  expect_digests("bayes-indep",
                 {{"random_congestion", 14965866655813156796ull},
                  {"no_independence", 2850813214990387521ull},
                  {"no_stationarity", 3645810186228150827ull}},
                 /*masked=*/true);
}

TEST(BayesCorrelationTest, MaskedOutputDigestPinned) {
  expect_digests("bayes-corr",
                 {{"random_congestion", 7982095404395813374ull},
                  {"no_independence", 15647984237417309216ull},
                  {"no_stationarity", 139185630824451011ull}},
                 /*masked=*/true);
}

}  // namespace
}  // namespace ntom

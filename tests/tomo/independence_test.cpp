#include "ntom/tomo/independence.hpp"

#include <gtest/gtest.h>

#include "ntom/sim/monitor.hpp"
#include "ntom/sim/truth.hpp"
#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using namespace topogen;

congestion_model toy_model(const topology& t,
                           std::vector<std::pair<std::size_t, double>> qs) {
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.congestable_links = bitvec(t.num_links());
  for (const auto& [r, q] : qs) m.phase_q[0][r] = q;
  return m;
}

/// The Independence fit on all-good counts taken from the store through
/// path_observations, not from the pathset_counter the estimator
/// adapters count with.
independence_result fit_on_store(const topology& t,
                                 const experiment_data& data,
                                 const independence_params& params = {}) {
  const path_observations obs(data);
  const std::vector<bitvec> sets = independence_path_sets(t, params);
  std::vector<std::size_t> counts;
  for (const bitvec& set : sets) counts.push_back(obs.count_all_good(set));
  return solve_independence(
      t, sets, counts, std::vector<std::size_t>(sets.size(), data.intervals),
      obs.always_good_paths());
}

TEST(IndependenceTest, RecoversIndependentLinks) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.3}, {3, 0.2}});
  sim_params sim;
  sim.intervals = 4000;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  const auto result = fit_on_store(t, data);
  const ground_truth truth(t, model, sim.intervals);

  for (const link_id e : {toy_e1, toy_e4}) {
    EXPECT_TRUE(result.links.estimated.test(e));
    EXPECT_NEAR(result.links.congestion[e],
                truth.link_congestion_probability(e), 0.03);
  }
}

TEST(IndependenceTest, MisestimatesCorrelatedLinks) {
  // §3.1: with e2,e3 perfectly correlated, the Independence assumption
  // breaks the joint into a product and the per-link estimates drift.
  // The observable symptom: the implied joint P(e2,e3 both congested)
  // = p2*p3 underestimates the true joint.
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{4, 0.3}});
  sim_params sim;
  sim.intervals = 5000;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  const auto result = fit_on_store(t, data);

  const double implied_joint = result.links.congestion[toy_e2] *
                               result.links.congestion[toy_e3];
  EXPECT_LT(implied_joint, 0.3 - 0.05)
      << "independence cannot represent the 0.3 joint";
}

TEST(IndependenceTest, LogGoodConsistentWithCongestion) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.4}});
  sim_params sim;
  sim.intervals = 2000;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  const auto result = fit_on_store(t, data);
  // The solver clamps log P(X_e = 0) to <= 0, so every estimate is a
  // probability.
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_GE(result.links.congestion[e], 0.0);
    EXPECT_LE(result.links.congestion[e], 1.0);
  }
}

TEST(IndependenceTest, NonPotentiallyCongestedAreZero) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.4}});  // p3 stays good.
  sim_params sim;
  sim.intervals = 1500;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  const auto result = fit_on_store(t, data);
  EXPECT_DOUBLE_EQ(result.links.congestion[toy_e3], 0.0);
  EXPECT_DOUBLE_EQ(result.links.congestion[toy_e4], 0.0);
}

TEST(IndependenceTest, EquationCapRespected) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.4}, {4, 0.2}});
  sim_params sim;
  sim.intervals = 800;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  independence_params params;
  params.max_pair_equations = 1;
  const auto result = fit_on_store(t, data, params);
  // 3 single-path equations (at most) + 1 pair.
  EXPECT_LE(result.equations_used, 4u);
}

}  // namespace
}  // namespace ntom

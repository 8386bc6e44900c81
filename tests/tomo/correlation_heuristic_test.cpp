#include "ntom/tomo/correlation_heuristic.hpp"

#include <gtest/gtest.h>

#include "ntom/sim/monitor.hpp"
#include "ntom/sim/truth.hpp"
#include "ntom/tomo/correlation_complete.hpp"
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

/// The flooded fit on all-good counts taken from the store through
/// path_observations, not from the pathset_counter the estimator
/// adapters count with.
correlation_heuristic_result fit_on_store(
    const topology& t, const experiment_data& data,
    const correlation_heuristic_params& params = {}) {
  const path_observations obs(data);
  const std::vector<bitvec> sets = correlation_heuristic_path_sets(t, params);
  std::vector<std::size_t> counts;
  for (const bitvec& set : sets) counts.push_back(obs.count_all_good(set));
  return solve_correlation_heuristic(
      t, sets, counts, std::vector<std::size_t>(sets.size(), data.intervals),
      obs.always_good_paths(), params);
}

TEST(CorrelationHeuristicTest, RecoversToyProbabilities) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.3}, {4, 0.2}});
  sim_params sim;
  sim.intervals = 5000;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  const auto result = fit_on_store(t, data);
  const ground_truth truth(t, model, sim.intervals);

  for (const link_id e : {toy_e1, toy_e2, toy_e3}) {
    const auto est = result.estimates.link_congestion(e);
    ASSERT_TRUE(est.has_value()) << "link " << e;
    EXPECT_NEAR(*est, truth.link_congestion_probability(e), 0.05);
  }
}

TEST(CorrelationHeuristicTest, HandlesCorrelationUnlikeIndependence) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{4, 0.3}});
  sim_params sim;
  sim.intervals = 5000;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  const auto result = fit_on_store(t, data);

  bitvec pair(t.num_links());
  pair.set(toy_e2);
  pair.set(toy_e3);
  const auto joint = result.estimates.set_congestion(pair);
  ASSERT_TRUE(joint.has_value());
  EXPECT_NEAR(*joint, 0.3, 0.05);
}

TEST(CorrelationHeuristicTest, UsesMoreEquationsThanComplete) {
  // The paper's distinguishing property (§5.4): the heuristic floods
  // the system; Correlation-complete selects a minimal set.
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.3}, {4, 0.2}});
  sim_params sim;
  sim.intervals = 2000;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);

  const auto heuristic = fit_on_store(t, data);
  const auto complete = compute_correlation_complete(t, data);
  EXPECT_GT(heuristic.equations_used, complete.equations_used);
}

TEST(CorrelationHeuristicTest, EquationCapsRespected) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{0, 0.3}});
  sim_params sim;
  sim.intervals = 800;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  correlation_heuristic_params params;
  params.max_pair_equations = 0;
  params.max_triple_equations = 0;
  const auto result = fit_on_store(t, data, params);
  // Only single-path equations: at most one per path.
  EXPECT_LE(result.equations_used, t.num_paths());
}

}  // namespace
}  // namespace ntom

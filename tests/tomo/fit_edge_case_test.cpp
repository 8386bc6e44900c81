// The fits on degenerate observations: every path always good (no
// potentially congested link), every path congested in every interval
// (no usable path set), a predicate that rejects everything, and a
// rank-deficient system (every path duplicated). Algorithm 1,
// Corr-complete, Independence and Corr-heuristic must each return a
// defined result: an empty selection, the full-nullity null space, a
// rank within the system's bounds, and no NaN in any estimate.
#include <gtest/gtest.h>

#include <cmath>

#include "ntom/corr/correlation.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/tomo/correlation_heuristic.hpp"
#include "ntom/tomo/independence.hpp"
#include "ntom/tomo/pathset_select.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

topology small_brite() {
  topogen::brite_params p;
  p.num_ases = 10;
  p.routers_per_as = 4;
  p.num_destination_hosts = 40;
  p.num_paths = 90;
  p.seed = 5;
  return topogen::generate_brite(p);
}

/// T intervals in which every path is good (or every path congested).
experiment_data constant_data(const topology& t, std::size_t intervals,
                              bool good) {
  experiment_data data;
  data.intervals = intervals;
  data.path_good = bit_matrix(t.num_paths(), intervals);
  data.true_links = bit_matrix(intervals, t.num_links());
  data.always_good_paths = bitvec(t.num_paths());
  if (good) {
    for (path_id p = 0; p < t.num_paths(); ++p) {
      for (std::size_t i = 0; i < intervals; ++i) data.path_good.set(p, i);
      data.always_good_paths.set(p);
    }
  }
  return data;
}

/// The selection Algorithm 1 must return when no path set is usable.
void expect_empty_selection(const pathset_selection& sel, std::size_t n1) {
  EXPECT_TRUE(sel.path_sets.empty());
  EXPECT_TRUE(sel.rows.empty());
  EXPECT_EQ(sel.seed_equations, 0u);
  EXPECT_EQ(sel.added_equations, 0u);
  EXPECT_GE(sel.candidates_examined, n1);
  EXPECT_EQ(sel.null_space, matrix::identity(n1));
  EXPECT_EQ(sel.identifiable.size(), n1);
  EXPECT_EQ(sel.identifiable.count(), 0u);
}

/// A fit with no equation: no rank, and every per-link value finite.
void expect_defined_fit(const topology& t,
                        const correlation_complete_result& r) {
  EXPECT_EQ(r.equations_used, 0u);
  EXPECT_EQ(r.system_rank, 0u);
  EXPECT_EQ(r.seed_equations, 0u);
  EXPECT_EQ(r.added_equations, 0u);
  const link_estimates links = r.estimates.to_link_estimates();
  ASSERT_EQ(links.congestion.size(), t.num_links());
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_TRUE(std::isfinite(links.congestion[e])) << "link " << e;
    const auto p = r.estimates.link_congestion(e);
    if (p) {
      EXPECT_TRUE(std::isfinite(*p)) << "link " << e;
    }
  }
}

/// The Independence and Corr-heuristic fits on all-good counts taken
/// from the store, as their estimators count them.
independence_result fit_independence(const topology& t,
                                     const experiment_data& data) {
  const path_observations obs(data);
  const std::vector<bitvec> sets = independence_path_sets(t);
  std::vector<std::size_t> counts;
  for (const bitvec& set : sets) counts.push_back(obs.count_all_good(set));
  return solve_independence(
      t, sets, counts, std::vector<std::size_t>(sets.size(), data.intervals),
      obs.always_good_paths());
}

correlation_heuristic_result fit_heuristic(const topology& t,
                                           const experiment_data& data) {
  const path_observations obs(data);
  const std::vector<bitvec> sets = correlation_heuristic_path_sets(t);
  std::vector<std::size_t> counts;
  for (const bitvec& set : sets) counts.push_back(obs.count_all_good(set));
  return solve_correlation_heuristic(
      t, sets, counts, std::vector<std::size_t>(sets.size(), data.intervals),
      obs.always_good_paths());
}

/// Every per-link value finite, and the rank within the system's
/// bounds: no more than its equations or its unknowns.
void expect_defined_links(const topology& t, const link_estimates& links,
                          std::size_t rank, std::size_t equations,
                          std::size_t unknowns) {
  EXPECT_LE(rank, equations);
  EXPECT_LE(rank, unknowns);
  ASSERT_EQ(links.congestion.size(), t.num_links());
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_TRUE(std::isfinite(links.congestion[e])) << "link " << e;
    EXPECT_GE(links.congestion[e], 0.0) << "link " << e;
    EXPECT_LE(links.congestion[e], 1.0) << "link " << e;
  }
}

/// Independence and Corr-heuristic on one store.
void expect_defined_flooded_fits(const topology& t,
                                 const experiment_data& data) {
  const bitvec potcong = potentially_congested_links(
      t, path_observations(data).always_good_paths());
  {
    SCOPED_TRACE("Independence");
    const independence_result r = fit_independence(t, data);
    expect_defined_links(t, r.links, r.system_rank, r.equations_used,
                         potcong.count());
  }
  {
    SCOPED_TRACE("Corr-heuristic");
    const correlation_heuristic_result r = fit_heuristic(t, data);
    expect_defined_links(t, r.estimates.to_link_estimates(), r.system_rank,
                         r.equations_used, r.estimates.catalog().size());
  }
}

TEST(FitEdgeCaseTest, AllPathsAlwaysGood) {
  const topology t = small_brite();
  const experiment_data data = constant_data(t, 50, true);
  const path_observations obs(data);
  const bitvec potcong =
      potentially_congested_links(t, obs.always_good_paths());
  ASSERT_TRUE(potcong.empty());
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  ASSERT_EQ(catalog.size(), 0u);

  expect_empty_selection(select_path_sets(t, catalog, potcong), 0);

  const correlation_complete_result r = compute_correlation_complete(t, data);
  expect_defined_fit(t, r);
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_EQ(r.estimates.link_congestion(e), 0.0) << "link " << e;
  }

  // Nothing is potentially congested: no unknown, so rank 0, and every
  // link is good.
  expect_defined_flooded_fits(t, data);
  const independence_result indep = fit_independence(t, data);
  EXPECT_EQ(indep.system_rank, 0u);
  const correlation_heuristic_result heur = fit_heuristic(t, data);
  EXPECT_EQ(heur.system_rank, 0u);
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_EQ(indep.links.congestion[e], 0.0) << "link " << e;
    EXPECT_EQ(heur.estimates.to_link_estimates().congestion[e], 0.0)
        << "link " << e;
  }
}

TEST(FitEdgeCaseTest, EveryPathAlwaysCongested) {
  const topology t = small_brite();
  const experiment_data data = constant_data(t, 50, false);
  const path_observations obs(data);
  const bitvec potcong =
      potentially_congested_links(t, obs.always_good_paths());
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  ASSERT_GT(catalog.size(), 0u);

  // No path set has an all-good interval: Corr-complete's predicate
  // refuses every candidate.
  const auto sel = select_path_sets(
      t, catalog, potcong, {},
      [&](const bitvec& pset) { return obs.count_all_good(pset) >= 1; });
  expect_empty_selection(sel, catalog.size());

  expect_defined_fit(t, compute_correlation_complete(t, data));

  // No all-good count is positive, so no equation has a finite log.
  expect_defined_flooded_fits(t, data);
  EXPECT_EQ(fit_independence(t, data).system_rank, 0u);
  EXPECT_EQ(fit_heuristic(t, data).system_rank, 0u);
}

TEST(FitEdgeCaseTest, PredicateRejectingEverything) {
  const topology t = small_brite();
  scenario_params sp;
  sp.seed = 8;
  const congestion_model model = make_scenario(t, "random_congestion", sp);
  sim_params sim;
  sim.intervals = 80;
  const experiment_data data = run_experiment(t, model, sim);
  const bitvec potcong = potentially_congested_links(
      t, path_observations(data).always_good_paths());
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  ASSERT_GT(catalog.size(), 0u);

  const auto sel = select_path_sets(t, catalog, potcong, {},
                                    [](const bitvec&) { return false; });
  expect_empty_selection(sel, catalog.size());

  // The same through Corr-complete: a floor above T refuses every set.
  correlation_complete_params params;
  params.min_all_good_count = sim.intervals + 1;
  expect_defined_fit(t, compute_correlation_complete(t, data, params));
}

TEST(FitEdgeCaseTest, DuplicatedPathsOnRankDeficientTopology) {
  // Fig. 1 Case 2 ({e1,e4} and {e2,e3} are traversed by the same paths)
  // with every path probed twice: the systems have more rows than rank,
  // and Corr-heuristic's also has fewer than its unknowns (it cannot
  // tell the two correlated pairs apart). The duplicates add no
  // information, so each fit keeps the rank it has on the paths probed
  // once.
  const topology once = topogen::make_toy(topogen::toy_case::case2);
  topology twice(once.num_router_links());
  for (link_id e = 0; e < once.num_links(); ++e) twice.add_link(once.link(e));
  for (path_id p = 0; p < once.num_paths(); ++p) {
    twice.add_path(once.get_path(p).links());
    twice.add_path(once.get_path(p).links());
  }
  twice.finalize();

  congestion_model model;
  model.phase_q.assign(1, std::vector<double>(once.num_router_links(), 0.2));
  model.congestable_links = bitvec(once.num_links());
  sim_params sim;
  sim.intervals = 400;
  sim.oracle_monitor = true;
  const experiment_data data_once = run_experiment(once, model, sim);
  const experiment_data data_twice = run_experiment(twice, model, sim);

  expect_defined_flooded_fits(twice, data_twice);
  const independence_result indep_once = fit_independence(once, data_once);
  const independence_result indep_twice = fit_independence(twice, data_twice);
  EXPECT_EQ(indep_twice.system_rank, indep_once.system_rank);
  EXPECT_LT(indep_twice.system_rank, indep_twice.equations_used);
  const correlation_heuristic_result heur_once = fit_heuristic(once, data_once);
  const correlation_heuristic_result heur_twice =
      fit_heuristic(twice, data_twice);
  EXPECT_EQ(heur_twice.system_rank, heur_once.system_rank);
  EXPECT_LT(heur_twice.system_rank, heur_twice.estimates.catalog().size());
}

}  // namespace
}  // namespace ntom

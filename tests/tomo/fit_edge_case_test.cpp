// Algorithm 1 and Corr-complete on degenerate observations: every path
// always good (no potentially congested link), every path congested in
// every interval (no usable path set), and a predicate that rejects
// everything. Each must return a defined result: an empty selection, the
// full-nullity null space, and no NaN in any estimate.
#include <gtest/gtest.h>

#include <cmath>

#include "ntom/corr/correlation.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/tomo/pathset_select.hpp"
#include "ntom/topogen/brite.hpp"

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
  data.ever_congested_links = bitvec(t.num_links());
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

}  // namespace
}  // namespace ntom

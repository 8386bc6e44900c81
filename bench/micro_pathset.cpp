// Microbenchmarks for Algorithm 1 (path-set selection), including the
// SortByHammingWeight ablation: the ordering is a search-speed
// optimization, so disabling it must not change the achieved rank —
// only the time to reach it. bm_select_counted runs Algorithm 1 as
// Corr-complete and Bayes-Corr do (count-threshold predicate on
// simulated data) on the fig3_brite network and reports the
// deterministic candidates_examined and rank_tests counters next to the
// time. bm_map_correlated fits Corr-complete once on the same network
// and times Bayes-Corr's per-interval MAP (map_correlated) over its 300
// intervals with the fit's tables warm, reporting the links it marks
// congested and the fit's state evaluations as counters.
#include <benchmark/benchmark.h>

#include "ntom/corr/correlation.hpp"
#include "ntom/infer/bayes_map.hpp"
#include "ntom/infer/observation.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/tomo/pathset_select.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/sparse.hpp"

namespace {

struct fixture {
  ntom::topology topo;
  ntom::bitvec potcong;
  ntom::subset_catalog catalog;
};

fixture make_fixture(bool sparse) {
  fixture f;
  if (sparse) {
    ntom::topogen::sparse_params params;
    params.seed = 3;
    f.topo = ntom::topogen::generate_sparse(params);
  } else {
    ntom::topogen::brite_params params;
    params.seed = 3;
    f.topo = ntom::topogen::generate_brite(params);
  }
  ntom::scenario_params sp;
  sp.seed = 5;
  const auto model = ntom::make_scenario(
      f.topo, "no_independence", sp);
  ntom::sim_params sim;
  sim.intervals = 200;
  const auto data = ntom::run_experiment(f.topo, model, sim);
  f.potcong = ntom::potentially_congested_links(
      f.topo, ntom::path_observations(data).always_good_paths());
  f.catalog = ntom::subset_catalog::build(f.topo, f.potcong);
  return f;
}

void bm_select_sorted(benchmark::State& state) {
  const fixture f = make_fixture(state.range(0) == 1);
  ntom::pathset_selection_params params;
  params.sort_by_hamming_weight = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ntom::select_path_sets(f.topo, f.catalog, f.potcong, params));
  }
}
BENCHMARK(bm_select_sorted)->Arg(0)->Arg(1);  // 0 = Brite, 1 = Sparse.

void bm_select_unsorted(benchmark::State& state) {
  const fixture f = make_fixture(state.range(0) == 1);
  ntom::pathset_selection_params params;
  params.sort_by_hamming_weight = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ntom::select_path_sets(f.topo, f.catalog, f.potcong, params));
  }
}
BENCHMARK(bm_select_unsorted)->Arg(0)->Arg(1);

/// The fig3_brite network (brite,n=36,hosts=180,paths=450) under
/// random congestion at T=300, with the observations Corr-complete
/// reads its count-threshold predicate from.
struct counted_fixture {
  ntom::topology topo;
  ntom::experiment_data data;
  ntom::bitvec potcong;
  ntom::subset_catalog catalog;
};

counted_fixture make_counted_fixture() {
  counted_fixture f;
  ntom::topogen::brite_params params;
  params.num_ases = 36;
  params.num_destination_hosts = 180;
  params.num_paths = 450;
  params.seed = 42;
  f.topo = ntom::topogen::generate_brite(params);
  ntom::scenario_params sp;
  sp.seed = 8;
  const auto model = ntom::make_scenario(f.topo, "random_congestion", sp);
  ntom::sim_params sim;
  sim.intervals = 300;
  f.data = ntom::run_experiment(f.topo, model, sim);
  f.potcong = ntom::potentially_congested_links(
      f.topo, ntom::path_observations(f.data).always_good_paths());
  f.catalog = ntom::subset_catalog::build(f.topo, f.potcong);
  return f;
}

void bm_select_counted(benchmark::State& state) {
  const counted_fixture f = make_counted_fixture();
  const ntom::path_observations obs(f.data);
  // compute_correlation_complete's predicate at its default floor.
  const std::size_t min_count =
      ntom::correlation_complete_params{}.min_all_good_count;
  const ntom::pathset_predicate usable = [&](const ntom::bitvec& pset) {
    return obs.count_all_good(pset) >= min_count;
  };
  std::size_t examined = 0;
  std::size_t rank_tests = 0;
  for (auto _ : state) {
    const ntom::pathset_selection sel =
        ntom::select_path_sets(f.topo, f.catalog, f.potcong, {}, usable);
    examined = sel.candidates_examined;
    rank_tests = sel.rank_tests;
    benchmark::DoNotOptimize(sel);
  }
  state.counters["candidates_examined"] =
      static_cast<double>(examined);
  state.counters["rank_tests"] = static_cast<double>(rank_tests);
}
BENCHMARK(bm_select_counted)->Unit(benchmark::kMillisecond);

void bm_map_correlated(benchmark::State& state) {
  const counted_fixture f = make_counted_fixture();
  const ntom::correlation_complete_result fit =
      ntom::compute_correlation_complete(f.topo, f.data);
  const ntom::link_estimates marginals = fit.estimates.to_link_estimates();
  std::vector<ntom::interval_observation> intervals;
  for (std::size_t i = 0; i < f.data.intervals; ++i) {
    intervals.push_back(
        ntom::make_observation(f.topo, f.data.congested_paths_at(i)));
  }
  // Built once per fit, as the Bayes-Corr estimator does. An untimed
  // pass fills the state table, so the timed passes run in steady state.
  ntom::map_correlated_tables tables(f.topo, fit.estimates, marginals);
  ntom::bitvec solution;
  for (const ntom::interval_observation& obs : intervals) {
    ntom::map_correlated(obs, tables, solution);
  }
  std::size_t marked = 0;
  for (auto _ : state) {
    marked = 0;
    for (const ntom::interval_observation& obs : intervals) {
      ntom::map_correlated(obs, tables, solution);
      marked += solution.count();
    }
  }
  state.counters["congested_links"] = static_cast<double>(marked);
  state.counters["state_evaluations"] =
      static_cast<double>(tables.state_evaluations());
}
BENCHMARK(bm_map_correlated)->Unit(benchmark::kMillisecond);

void bm_catalog_build(benchmark::State& state) {
  const fixture f = make_fixture(state.range(0) == 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ntom::subset_catalog::build(f.topo, f.potcong));
  }
}
BENCHMARK(bm_catalog_build)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();

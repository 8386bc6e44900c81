// Benchmark for the sharded grid scheduler (ISSUE 4): the
// topology-cache wall-clock win on a multi-replica BRITE grid, and the
// work-stealing cell counters.
//
// The grid is scenario arms x replicas on one BRITE spec, so every
// replica generates its topology once and the scenario arms reuse it;
// the uncached pass regenerates per run (the pre-grid behavior). Both
// passes produce bit-identical aggregates — the bench asserts that too.
//
//   ./grid_sched                      # defaults: 8 replicas, 3 arms
//   ./grid_sched --replicas=12 --intervals=150 --threads=4 --json
//
// --json[=<path>] writes BENCH_grid_sched.json. The headline cell is
// scheduler/speedup_cached_x (> 1 expected whenever topology generation
// is a visible slice of run time).
#include <chrono>
#include <cstdio>
#include <string>

#include "ntom/api/experiment.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/thread_pool.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const auto replicas = opts.get_size("replicas", 8);
  const auto intervals = opts.get_size("intervals", 120);
  const auto threads = opts.get_size("threads", 0);
  const std::string topo =
      opts.get_string("topo", "brite,n=24,hosts=60,paths=240");
  // Default to the cheap estimator: the bench isolates the scheduler +
  // topology-generation slice, not estimator cost (pass
  // --estimator=bayes-indep to shift the balance).
  const std::string estimator = opts.get_string("estimator", "sparsity");

  const auto grid = [&] {
    experiment e;
    e.with_topology(topo)
        .with_scenario("random_congestion")
        .with_scenario("concentrated_congestion")
        .with_scenario("no_independence")
        .with_scenario("srlg")
        .with_scenario("gilbert")
        .with_scenario("hotspot_drift")
        .with_estimator(estimator)
        .replicas(replicas)
        .intervals(intervals);
    return e;
  };

  batch_params params;
  params.threads = threads;
  params.base_seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));

  std::printf("grid_sched — %zu replicas x 6 scenario arms on %s, T=%zu, "
              "threads=%zu\n",
              replicas, topo.c_str(), intervals,
              resolve_threads(threads));

  batch_params uncached_params = params;
  uncached_params.cache_topologies = false;
  grid_stats uncached_stats;
  clock_type::time_point start = clock_type::now();
  const batch_report uncached = grid().run(uncached_params, &uncached_stats);
  const double uncached_seconds = seconds_since(start);

  grid_stats cached_stats;
  start = clock_type::now();
  const batch_report cached = grid().run(params, &cached_stats);
  const double cached_seconds = seconds_since(start);

  // The cache must be invisible in the results: bit-identical cells.
  const auto a = uncached.summarize();
  const auto b = cached.summarize();
  bool identical = a.size() == b.size();
  for (std::size_t i = 0; identical && i < a.size(); ++i) {
    identical = a[i].label == b[i].label && a[i].series == b[i].series &&
                a[i].metric == b[i].metric && a[i].mean == b[i].mean &&
                a[i].stddev == b[i].stddev;
  }
  const double speedup =
      cached_seconds > 0.0 ? uncached_seconds / cached_seconds : 0.0;
  std::printf("uncached: %.3fs (%zu cells, %zu stolen)\n", uncached_seconds,
              uncached_stats.cells, uncached_stats.steals);
  std::printf("cached:   %.3fs (%zu topology hits / %zu misses)\n",
              cached_seconds, cached_stats.topo_cache_hits,
              cached_stats.topo_cache_misses);
  std::printf("speedup %.2fx; aggregates %s\n", speedup,
              identical ? "BIT-IDENTICAL" : "DIFFER (BUG)");

  batch_report report;
  run_result row;
  row.label = "scheduler";
  row.seconds = uncached_seconds + cached_seconds;
  row.measurements = {
      {"uncached", "wall_seconds", uncached_seconds},
      {"cached", "wall_seconds", cached_seconds},
      {"scheduler", "speedup_cached_x", speedup},
      {"scheduler", "cells", static_cast<double>(cached_stats.cells)},
      {"scheduler", "runs", static_cast<double>(cached_stats.runs)},
      {"scheduler", "topo_cache_hits",
       static_cast<double>(cached_stats.topo_cache_hits)},
      {"scheduler", "topo_cache_misses",
       static_cast<double>(cached_stats.topo_cache_misses)},
      {"scheduler", "aggregates_identical", identical ? 1.0 : 0.0},
  };
  report.add(std::move(row));
  report.total_seconds = uncached_seconds + cached_seconds;
  maybe_write_bench_json(report, opts, "grid_sched",
                         {{"replicas", std::to_string(replicas)},
                          {"intervals", std::to_string(intervals)},
                          {"topo", topo},
                          {"estimator", estimator},
                          {"threads", std::to_string(threads)}});
  return identical ? 0 : 1;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv,
                       {"replicas", "intervals", "threads", "topo", "estimator",
                        "seed", "json"},
                       run);
}

// Reproduces Fig. 4(a) and 4(b): mean absolute error of the per-link
// congestion probability computed by Independence [11],
// Correlation-heuristic [9], and Correlation-complete (this paper),
// under Random / Concentrated / No-Independence congestion, on Brite
// (4a) and Sparse (4b) topologies. Per §5.4, the No-Stationarity
// behaviour is layered on top of every scenario (probabilities change
// every few intervals); pass --stationary to disable that layer.
//
// The grid is pure specs: 2 topology specs x 3 scenario specs, the
// estimators resolved by name through the estimator registry. Runs on
// the grid scheduler: one cell per (run x estimator), the grid (x
// --replicas) fanned out across --threads workers with per-run seeds
// derived from --seed and the run index. --json[=<path>] writes a
// BENCH_*.json summary.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "ntom/exp/batch.hpp"
#include "ntom/exp/evals.hpp"
#include "ntom/exp/grid.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/thread_pool.hpp"

namespace {

const std::vector<ntom::scenario_spec>& scenario_arms() {
  static const std::vector<ntom::scenario_spec> arms = {
      "random_congestion", "concentrated_congestion", "no_independence"};
  return arms;
}

const std::vector<ntom::estimator_spec>& estimator_arms() {
  static const std::vector<ntom::estimator_spec> arms = {
      "independence", "corr-heuristic", "corr-complete"};
  return arms;
}

std::vector<ntom::run_spec> make_specs(bool paper_scale, bool stationary,
                                       std::size_t intervals,
                                       std::size_t replicas) {
  using namespace ntom;
  std::vector<run_spec> specs;
  for (std::size_t r = 0; r < replicas; ++r) {
    for (const char* topo_name : {"brite", "sparse"}) {
      topology_spec topo(topo_name);
      if (paper_scale) topo = topo.with_option("scale", "paper");
      for (scenario_spec scenario : scenario_arms()) {
        if (!stationary) scenario = scenario.with_option("nonstationary", "true");
        run_config config;
        config.topo = topo;
        config.scenario = scenario;
        config.sim.intervals = intervals;
        run_spec spec{topology_label(topo) + "/" + scenario_label(scenario),
                      std::move(config)};
        spec.seed_group = r;  // same topology across arms of a replica.
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const bool paper_scale = paper_scale_from_flags(opts);
  const bool stationary = opts.get_bool("stationary", false);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const std::size_t intervals =
      opts.get_size("intervals", paper_scale ? 1000 : 300);
  const std::size_t replicas = opts.get_size("replicas", 1);
  const std::size_t threads = opts.get_size("threads", 0);

  std::cout << "Fig. 4(a)/(b) — Probability Computation error "
            << "(scale=" << (paper_scale ? "paper" : "small")
            << ", T=" << intervals << ", seed=" << seed
            << (stationary ? ", stationary" : ", non-stationary")
            << ", replicas=" << replicas
            << ", threads=" << resolve_threads(threads) << ")\n\n";

  batch_params params;
  params.threads = threads;
  params.base_seed = seed;
  const batch_report report = run_grid(
      make_specs(paper_scale, stationary, intervals, replicas),
      estimator_cells(estimator_arms(), {.boolean_metrics = false,
                                         .link_error_metrics = true}),
      params);

  std::vector<std::string> estimators;
  for (const estimator_spec& s : estimator_arms()) {
    estimators.push_back(estimator_label(s));
  }
  for (const char* topo_name : {"brite", "sparse"}) {
    const std::string topo = topology_label(topology_spec(topo_name));
    table_printer table(
        {"Scenario", "Independence", "Corr-heuristic", "Corr-complete"});
    for (const scenario_spec& scenario : scenario_arms()) {
      const std::string label = scenario_label(scenario);
      const std::string full = topo + "/" + label;
      std::vector<double> row;
      for (const std::string& est : estimators) {
        row.push_back(report.mean_of(full, est, "mean_abs_error"));
      }
      table.add_row(label, row);
    }
    std::cout << (topo == "Brite"
                      ? "(a) Mean absolute error — Brite topologies\n"
                      : "\n(b) Mean absolute error — Sparse topologies\n");
    table.print(std::cout);
  }
  std::printf("\n%zu runs in %.2fs wall clock\n", report.runs().size(),
              report.total_seconds);

  if (opts.has("csv")) {
    report.write_runs_csv(opts.get_string("csv", "fig4ab.csv"));
  }
  if (opts.has("summary-csv")) {
    report.write_summary_csv(
        opts.get_string("summary-csv", "fig4ab_summary.csv"));
  }
  maybe_write_bench_json(
      report, opts, "fig4_proberror",
      {{"scale", paper_scale ? "paper" : "small"},
       {"intervals", std::to_string(intervals)},
       {"seed", std::to_string(seed)},
       {"stationary", stationary ? "true" : "false"},
       {"replicas", std::to_string(replicas)},
       {"threads", std::to_string(resolve_threads(threads))}});
  return 0;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv,
                       {"scale", "stationary", "seed", "intervals", "replicas",
                        "threads", "csv", "summary-csv", "json"},
                       run);
}

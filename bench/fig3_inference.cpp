// Reproduces Fig. 3(a) and 3(b): detection rate and false-positive rate
// of the three Boolean Inference algorithms (Sparsity,
// Bayesian-Independence, Bayesian-Correlation) under the five scenarios:
//
//   Random Congestion (Brite)      Concentrated Congestion (Brite)
//   No Independence (Brite)        No Stationarity (Brite)
//   Sparse Topology (Sparse + random congestion)
//
// 10% of links have a non-zero congestion probability (§3.2).
// Every arm is a (topology spec, scenario spec) pair resolved through
// the registries. Runs on the grid scheduler: one cell per (scenario x
// --replicas seed replication x algorithm), fanned out across --threads
// workers with per-run seeds derived from --seed and the run index, so
// results are independent of the thread count. Run with --scale=paper
// for the paper's dimensions (slower); default is a reduced-scale
// configuration with the same qualitative shape. --csv=<path> dumps the per-run
// series, --summary-csv=<path> the aggregated mean/stddev/percentiles,
// --json[=<path>] a machine-readable BENCH_*.json summary.
#include <algorithm>
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

std::vector<ntom::run_spec> make_specs(bool paper_scale, std::size_t intervals,
                                       std::size_t replicas) {
  using namespace ntom;
  const auto topo = [paper_scale](const char* name) {
    topology_spec s(name);
    return paper_scale ? s.with_option("scale", "paper") : s;
  };

  // The five Fig. 3 arms as (label, topology spec, scenario spec).
  struct arm {
    const char* label;
    topology_spec topo;
    scenario_spec scenario;
  };
  const std::vector<arm> arms = {
      {"Random Congestion", topo("brite"), "random_congestion"},
      {"Concentrated Congestion", topo("brite"), "concentrated_congestion"},
      {"No Independence", topo("brite"), "no_independence"},
      {"No Stationarity", topo("brite"), "no_stationarity"},
      {"Sparse Topology", topo("sparse"), "random_congestion"},
  };

  // Replicas repeat each scenario label. All arms of one replica share
  // a seed_group, so the algorithms are compared on the same topology
  // within a replica (as in the paper); each replica draws a new one.
  std::vector<run_spec> specs;
  for (std::size_t r = 0; r < replicas; ++r) {
    for (const arm& a : arms) {
      run_config c;
      c.topo = a.topo;
      c.scenario = a.scenario;
      c.sim.intervals = intervals;
      run_spec spec{a.label, std::move(c)};
      spec.seed_group = r;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const bool paper_scale = paper_scale_from_flags(opts);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const std::size_t intervals =
      opts.get_size("intervals", paper_scale ? 1000 : 300);
  const std::size_t replicas = opts.get_size("replicas", 1);
  const std::size_t threads = opts.get_size("threads", 0);

  batch_params params;
  params.threads = threads;
  params.base_seed = seed;
  const std::vector<run_spec> specs =
      make_specs(paper_scale, intervals, replicas);

  std::cout << "Fig. 3 — Boolean Inference accuracy "
            << "(scale=" << (paper_scale ? "paper" : "small")
            << ", T=" << intervals << ", seed=" << seed
            << ", replicas=" << replicas
            << ", threads=" << resolve_threads(threads) << ")\n\n";

  const batch_report report = run_grid(
      specs, estimator_cells({"sparsity", "bayes-indep", "bayes-corr"}),
      params);

  const std::vector<std::string> algorithms = {"Sparsity", "Bayes-Indep",
                                               "Bayes-Corr"};
  table_printer detection({"Scenario", "Sparsity", "Bayes-Indep",
                           "Bayes-Corr"});
  table_printer false_pos({"Scenario", "Sparsity", "Bayes-Indep",
                           "Bayes-Corr"});
  std::vector<std::string> seen;
  for (const run_result& run : report.runs()) {
    if (std::find(seen.begin(), seen.end(), run.label) != seen.end()) continue;
    seen.push_back(run.label);
    std::vector<double> det_row, fp_row;
    for (const std::string& algo : algorithms) {
      det_row.push_back(report.mean_of(run.label, algo, "detection_rate"));
      fp_row.push_back(report.mean_of(run.label, algo, "false_positive_rate"));
    }
    detection.add_row(run.label, det_row);
    false_pos.add_row(run.label, fp_row);
  }

  std::cout << "(a) Detection Rate\n";
  detection.print(std::cout);
  std::cout << "\n(b) False Positive Rate\n";
  false_pos.print(std::cout);
  std::printf("\n%zu runs in %.2fs wall clock\n", report.runs().size(),
              report.total_seconds);

  if (opts.has("csv")) report.write_runs_csv(opts.get_string("csv", "fig3.csv"));
  if (opts.has("summary-csv")) {
    report.write_summary_csv(opts.get_string("summary-csv", "fig3_summary.csv"));
  }
  maybe_write_bench_json(
      report, opts, "fig3_inference",
      {{"scale", paper_scale ? "paper" : "small"},
       {"intervals", std::to_string(intervals)},
       {"seed", std::to_string(seed)},
       {"replicas", std::to_string(replicas)},
       {"threads", std::to_string(resolve_threads(threads))}});
  return 0;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv,
                       {"scale", "seed", "intervals", "replicas", "threads",
                        "csv", "summary-csv", "json"},
                       run);
}

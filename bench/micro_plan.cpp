// Probe-budget planning bench (ISSUE 7): detection-rate-vs-budget
// curves for the registered probe policies across the correlated-
// failure scenario suite, plus the two deterministic contracts the
// bench gate holds — every policy at frac=1.0 is bit-identical to the
// unmasked pipeline, and the info_gain planner beats uniform sampling
// at equal partial budget on at least 3 scenarios.
//
//   ./micro_plan                       # defaults: T = 320, chunk = 16
//   ./micro_plan --intervals=640 --json --csv=plan_curves.csv
//
// --json[=<path>] writes BENCH_micro_plan.json. Gated cells: every
// per-scenario detection_rate point of the curves (deterministic in
// the seeds at fixed chunk size), plan/headline/wins, and
// plan/headline/full_budget_identical (exact).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ntom/exp/evals.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/util/flags.hpp"

namespace {

struct scenario_arm {
  const char* key;   // aggregation label (short).
  const char* spec;  // registered scenario spec.
};

// The correlated-failure scenario suite (PR 4) — every registered
// congestion scenario, short keys for the table.
constexpr scenario_arm kScenarios[] = {
    {"random", "random_congestion"},
    {"concentrated", "concentrated_congestion"},
    {"noindep", "no_independence"},
    {"srlg", "srlg"},
    {"gilbert", "gilbert"},
    {"hotspot", "hotspot_drift"},
    {"nostat", "no_stationarity"},
};

constexpr double kBudgets[] = {0.05, 0.10, 0.25, 0.50, 1.0};

std::string budget_tag(double frac) {
  return std::to_string(
      static_cast<int>(std::lround(frac * 100.0)));
}

std::string policy_spec_for(const std::string& name, double frac) {
  std::string s = name + ",frac=" + std::to_string(frac);
  if (name == "uniform") s += ",seed=9";
  return s;
}

/// Exact row-set equality — the frac=1.0 bit-identity contract.
bool rows_identical(const std::vector<ntom::measurement>& a,
                    const std::vector<ntom::measurement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].series != b[i].series || a[i].metric != b[i].metric ||
        a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

double rate_of(const std::vector<ntom::measurement>& rows,
               const std::string& series, const std::string& metric) {
  for (const ntom::measurement& m : rows) {
    if (m.series == series && m.metric == metric) return m.value;
  }
  return 0.0;
}

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const auto intervals = opts.get_size("intervals", 320);
  const auto chunk = opts.get_size("chunk", 16);

  // Small fixed grid: one topology, the scenario suite, two streaming
  // Boolean estimators. All seeds are pinned — the curves are exact.
  const estimator_eval_options eval_options{/*boolean_metrics=*/true,
                                            /*link_error_metrics=*/false};
  const estimator_cells cells({"sparsity", "bayes-indep"}, eval_options);
  const std::vector<std::string> policies = {"uniform", "round_robin",
                                             "info_gain"};

  batch_report report;
  std::size_t run_index = 0;
  bool full_identical = true;
  std::size_t wins = 0;

  table_printer table({"Scenario", "Policy", "Budget%", "DR Sparsity",
                       "DR Bayes-Indep"});
  const auto t0 = std::chrono::steady_clock::now();

  std::shared_ptr<const topology> shared_topo;
  for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
    const scenario_arm& arm = kScenarios[s];
    run_config base;
    base.topo = "brite,n=10,hosts=30,paths=60";
    base.topo_seed = 3;
    base.scenario = arm.spec;
    base.scenario_opts.seed = 100 + s;
    base.sim.seed = 57 + s;
    base.sim.intervals = intervals;
    base.sim.packets_per_path = 40;
    base.stream.enabled = true;  // the unmasked reference streams too,
                                 // so frac=1.0 comparisons are
                                 // like-for-like at the same chunking.
    base.stream.chunk_intervals = chunk;

    const auto evaluate = [&](const std::string& policy) {
      run_config config = base;
      config.plan.policy = policy;
      config.reconcile();
      const run_artifacts run = prepare_topology(config, shared_topo);
      if (shared_topo == nullptr) shared_topo = run.topo_ptr;
      return cells.eval_all(config, run);
    };

    const std::vector<measurement> unmasked = evaluate("");
    table.add_row({arm.key, "unmasked", "100",
                   format_fixed(rate_of(unmasked, "Sparsity",
                                        "detection_rate")),
                   format_fixed(rate_of(unmasked, "Bayes-Indep",
                                        "detection_rate"))});

    run_result result;
    result.index = run_index++;
    result.label = arm.key;
    for (const measurement& m : unmasked) {
      result.measurements.push_back(
          {"unmasked:" + m.series, m.metric, m.value});
    }

    // Mean detection rate over the partial budgets — the per-scenario
    // planner comparison behind the `wins` headline.
    double uniform_mean = 0.0;
    double info_gain_mean = 0.0;
    std::size_t partial_points = 0;

    for (const std::string& policy : policies) {
      for (const double frac : kBudgets) {
        const std::vector<measurement> rows =
            evaluate(policy_spec_for(policy, frac));
        const std::string tag = policy + "@" + budget_tag(frac);
        for (const measurement& m : rows) {
          result.measurements.push_back(
              {tag + ":" + m.series, m.metric, m.value});
        }
        const double dr_sparsity =
            rate_of(rows, "Sparsity", "detection_rate");
        const double dr_bayes =
            rate_of(rows, "Bayes-Indep", "detection_rate");
        table.add_row({arm.key, policy, budget_tag(frac),
                       format_fixed(dr_sparsity), format_fixed(dr_bayes)});
        if (frac >= 1.0) {
          // Contract 1: a full budget is a zero-copy pass-through —
          // bit-identical to the unmasked pipeline, every metric.
          if (!rows_identical(rows, unmasked)) {
            std::fprintf(stderr,
                         "micro_plan: %s at frac=1.0 diverged from the "
                         "unmasked pipeline on scenario %s\n",
                         policy.c_str(), arm.key);
            full_identical = false;
          }
        } else {
          if (policy == "uniform") {
            uniform_mean += dr_bayes;
            ++partial_points;
          } else if (policy == "info_gain") {
            info_gain_mean += dr_bayes;
          }
        }
      }
    }
    if (partial_points > 0 && info_gain_mean > uniform_mean) ++wins;
    report.add(std::move(result));
  }

  const double total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("micro_plan: %zu scenarios x {unmasked + %zu policies x %zu "
              "budgets}, T=%zu, chunk=%zu (%.2f s)\n\n",
              std::size(kScenarios), policies.size(), std::size(kBudgets),
              intervals, chunk, total_seconds);
  table.print(std::cout);
  std::printf("\n  full-budget bit-identity        %8s\n",
              full_identical ? "yes" : "NO");
  std::printf("  info_gain > uniform (mean DR over partial budgets)"
              "  %zu / %zu scenarios\n",
              wins, std::size(kScenarios));

  // Contract 2: the adaptive planner must beat uniform sampling at
  // equal budget on at least 3 scenarios — the headline claim of the
  // planning subsystem, held by the bench gate.
  run_result headline;
  headline.index = run_index++;
  headline.label = "plan";
  headline.seconds = total_seconds;
  headline.measurements = {
      {"headline", "wins", static_cast<double>(wins)},
      {"headline", "full_budget_identical", full_identical ? 1.0 : 0.0},
      {"headline", "pass_seconds", total_seconds},
  };
  report.total_seconds = total_seconds;
  report.add(std::move(headline));

  if (opts.has("csv")) {
    report.write_runs_csv(opts.get_string("csv", "plan_curves.csv"));
  }
  maybe_write_bench_json(report, opts, "micro_plan",
                         {{"intervals", std::to_string(intervals)},
                          {"chunk", std::to_string(chunk)}});

  if (!full_identical) return 1;
  if (wins < 3) {
    std::fprintf(stderr,
                 "micro_plan: info_gain beat uniform on only %zu scenarios "
                 "(need >= 3)\n",
                 wins);
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv, {"intervals", "chunk", "csv", "json"}, run);
}

// The ntom::experiment facade: a topology x scenario x estimator grid
// specified entirely by spec strings, executed on the parallel batched
// engine.
//
//   const ntom::batch_report report =
//       ntom::experiment()
//           .with_topology("brite,n=200")
//           .with_topology("sparse")
//           .with_scenario("random_congestion")
//           .with_scenario("no_stationarity,phase_length=25")
//           .with_estimators({"sparsity", "bayes-corr"})
//           .replicas(30)
//           .intervals(300)
//           .run({.threads = 8, .base_seed = 42});
//
// Every replica runs all scenario arms on the same drawn topology
// (seed_group = replica), per-run seeds derive from base_seed and the
// run index, and the aggregates are bit-identical at any thread count —
// the facade inherits run_grid's determinism guarantee unchanged.
//
// Spec strings resolve through the registries when they are added, so a
// typo fails at build time of the grid, not mid-batch.
#pragma once

#include <string>
#include <vector>

#include "ntom/api/estimator.hpp"
#include "ntom/exp/batch.hpp"
#include "ntom/exp/evals.hpp"
#include "ntom/exp/grid.hpp"

namespace ntom {

/// Catalog of all three registries (names, aliases, option docs) plus
/// the spec grammar — the CLIs' `--list` / `list` output.
[[nodiscard]] std::string describe_registries();

/// Filtered catalog: `what` selects one registry ("topologies",
/// "scenarios", "estimators", "imperfections", "policies") or one
/// registered name/alias from any of them (full option docs for that
/// entry). Empty selects everything; unknown values throw spec_error.
[[nodiscard]] std::string describe_registries(const std::string& what);

/// Machine-readable catalog: one JSON object
/// `{"topologies": [...], "scenarios": [...], "estimators": [...],
/// "imperfections": [...], "policies": [...]}` whose arrays are the registries'
/// describe_json() entries — the CLIs' `--list-json` payload. `what`
/// filters exactly like describe_registries(what): a registry name
/// yields that single-key object, a registered component name/alias
/// yields the bare entry object; unknown values throw spec_error.
[[nodiscard]] std::string describe_registries_json();
[[nodiscard]] std::string describe_registries_json(const std::string& what);

class experiment {
 public:
  experiment();

  /// Adds one topology / scenario / estimator arm. Each call validates
  /// the spec against its registry (throws spec_error). The first call
  /// replaces the default ("brite" / "random_congestion" / the three
  /// Fig. 3 Boolean algorithms).
  experiment& with_topology(topology_spec s);
  experiment& with_scenario(scenario_spec s);
  experiment& with_estimator(estimator_spec s);
  experiment& with_estimators(std::vector<estimator_spec> specs);

  /// Seed replications of the whole grid (default 1). Scenario arms of
  /// one replica share the topology draw, as in the paper's figures.
  experiment& replicas(std::size_t n);

  /// Probing intervals T (shorthand for with_sim).
  experiment& intervals(std::size_t t);

  /// Full simulation / scenario parameter control. The scenario spec's
  /// own options still win over these defaults at reconcile time.
  experiment& with_sim(const sim_params& sim);
  experiment& with_scenario_defaults(const scenario_params& params);

  /// Whether to emit the link-error measurement family (default on;
  /// estimators without link estimation skip it either way).
  experiment& measure_link_error(bool on);

  /// Streamed execution, grouped (mirrors run_config::stream): every
  /// run simulates the interval stream per pass instead of replaying a
  /// materialized observation store (a captured run scores from its
  /// capture instead of simulating again) — O(chunk) memory per
  /// in-flight run, so T can reach 10^6 (store-bound fits such as
  /// bayes-corr still collect a private store). Bit-identical
  /// aggregates to the materialized mode for the same seeds.
  experiment& with_streaming(stream_options stream);

  /// Trace capture, grouped (mirrors run_config::capture, except
  /// `path` here names a DIRECTORY): captures every run's measurement
  /// stream to `<path>/<label>_<index>.trc` (trace/trace_writer riding
  /// the run's simulation or fit pass — results are bit-identical with
  /// capture on). The directory must exist. `truth` includes the
  /// ground-truth plane (disable to publish observation-only
  /// datasets). Replay the files with the `trace` scenario:
  /// with_scenario("trace,file='...'").
  experiment& with_capture(capture_options capture);

  /// Probe-budget measurement planning (mirrors run_config::plan): a
  /// probe_policy spec ("uniform,frac=0.25,seed=7", "round_robin,...",
  /// "info_gain,...") masks every run's measurement stream before the
  /// estimators and scorers see it. Validated eagerly (throws
  /// spec_error). A per-arm scenario `policy='...'` option overrides
  /// this grid-wide default at reconcile time. Policies force streamed
  /// execution and reject store-bound estimators (bayes-corr,
  /// corr-complete) with spec_error. Empty clears.
  experiment& with_policy(std::string policy_spec);

  /// Partitioned hierarchical inference (mirrors run_config::part): the
  /// evals driver decomposes every run's topology into independently
  /// solvable cells (ntom/part — connected or biconnected components of
  /// the link/path structure), fits each estimator per cell, and merges
  /// the estimates back at the cut links. `mode` none (the default)
  /// disables; a topology whose plan collapses to one cell falls back
  /// to the monolithic fit automatically. Validated eagerly (throws
  /// spec_error on a zero max_cell_links).
  experiment& with_partitioning(partition_options part);

  /// The expanded grid: replicas x topologies x scenarios, labelled
  /// "<topology label>/<scenario label>", seed_group = replica.
  [[nodiscard]] std::vector<run_spec> specs() const;

  /// Runs the grid on the work-stealing cell scheduler: specs() +
  /// estimator cells + run_grid(specs, cells, params). `stats`
  /// (optional) receives the scheduler counters (cells, steals,
  /// topology-cache hits).
  [[nodiscard]] batch_report run(const batch_params& params = {},
                                 grid_stats* stats = nullptr) const;

 private:
  /// True while the corresponding list still holds the built-in default
  /// (cleared by the first explicit with_* call).
  struct default_flags {
    bool topologies = true;
    bool scenarios = true;
    bool estimators = true;
  };

  std::vector<topology_spec> topologies_;
  std::vector<scenario_spec> scenarios_;
  std::vector<estimator_spec> estimators_;
  default_flags defaults_;
  std::size_t replicas_ = 1;
  sim_params sim_;
  scenario_params scenario_defaults_;
  estimator_eval_options eval_options_;
  stream_options stream_;
  capture_options capture_;  // capture_.path is the capture DIRECTORY.
  plan_options plan_;
  partition_options part_;
};

}  // namespace ntom

// End-to-end experiment orchestration used by benches and examples:
// resolve topology spec -> resolve scenario spec -> simulate ->
// estimate -> score.
//
// One `run_config` corresponds to one bar/point of Fig. 3 or Fig. 4.
// Topologies and scenarios are referenced by spec string and resolved
// through their registries, so new workloads register a factory instead
// of rewiring this layer.
//
// One driver, two sources. Every fit and every score is a pass of the
// interval stream through measurement_sinks (stream_experiment); the
// run decides where the stream comes from:
//   * the materialized store — prepare_run simulates once into the
//     columnar experiment_data, and every later pass replays it
//     (replay_experiment);
//   * the origin — prepare_topology skips the simulation, and each
//     pass re-simulates (or re-reads a replayed dataset), holding
//     O(chunk) memory. An evaluator's score pass reads the run's
//     capture back instead when its fit pass just recorded one
//     (capture_options).
// `run_config::stream.enabled` picks between the two: memory against
// recompute. Same seed -> bit-identical results either way, at any
// chunk size.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "ntom/exp/metrics.hpp"
#include "ntom/part/partition.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/topogen/registry.hpp"

namespace ntom {

/// Streamed-execution knobs, grouped: one struct configures the whole
/// mode instead of two loose fields. Mirrored by the facade's
/// experiment::with_streaming builder.
struct stream_options {
  /// Streamed execution: the batch engine skips materialization, so
  /// the evaluator's fit pass simulates the interval stream instead of
  /// replaying a stored copy (and its score pass re-simulates unless
  /// it can read the run's capture, see capture_options).
  ///
  /// A switch of its own, not a corner of chunk_intervals, because
  /// both settings earn their keep. A run fanned out to many estimator
  /// cells simulates once and replays the store to each (the benchmark's
  /// fig3_brite and fig4_sparse workloads replay one run to 9 and 8
  /// cells), while long runs stream in O(chunk) memory (capture_replay,
  /// service_window). Probe policies need streaming regardless: the
  /// store has no mask plane, so reconcile() sets this. benchmark/src
  /// sets the field directly.
  bool enabled = false;

  /// Chunk granularity of the streamed mode (never changes results).
  std::size_t chunk_intervals = default_chunk_intervals;
};

/// Probe-budget planning knobs (ntom/plan), grouped. Mirrored by the
/// facade's experiment::with_policy builder and the scenario spec's
/// universal `policy='...'` option (the spec option wins at reconcile).
struct plan_options {
  /// When non-empty, a probe_policy spec ("uniform,frac=0.25,seed=7",
  /// "round_robin,frac=0.1", "info_gain,frac=0.25,horizon=16") masks
  /// the measurement stream before estimators and scorers see it.
  /// reconcile() validates the spec eagerly and forces streamed
  /// execution — the materialized store has no mask plane.
  std::string policy;
};

/// Trace-capture knobs, grouped. Mirrored by the facade's
/// experiment::with_capture builder (where `path` names the capture
/// DIRECTORY and each run derives its own file under it).
struct capture_options {
  /// When non-empty, the run's measurement stream is also recorded to
  /// this .trc file (trace/trace_writer), exactly once: during
  /// materialization when prepare_run fills the store, else riding the
  /// evaluator's fit pass. In the latter case the score pass reads the
  /// closed file back (trace_reader) instead of simulating again; the
  /// file holds the post-policy stream, so no policy is applied twice.
  /// A truthful run whose capture drops truth (`truth = false`) still
  /// re-simulates to score. Either way results are bit-identical with
  /// capture on, and run_grid rejects two runs sharing one path.
  std::string path;

  /// Include the ground-truth plane in the capture (disable to publish
  /// observation-only datasets).
  bool truth = true;
};

struct run_config {
  topology_spec topo = "brite";
  /// Topology RNG seed; owned by the engine (derive_run_seeds), kept
  /// outside the spec so the reproducibility contract stays explicit.
  std::uint64_t topo_seed = 1;

  scenario_spec scenario = "random_congestion";
  scenario_params scenario_opts;
  sim_params sim;

  /// Execution-mode knob groups (formerly the flat streamed /
  /// chunk_intervals / capture_path / capture_truth fields).
  stream_options stream;
  capture_options capture;
  plan_options plan;

  /// Partitioned-inference knobs (ntom/part), grouped like the other
  /// mode structs and mirrored by the facade's with_partitioning
  /// builder. When `part.mode` is not `none`, the evals driver computes
  /// one partition_plan per run (shared across its estimator cells) and
  /// fits every estimator per cell through the hierarchical adapter;
  /// a trivial plan (<= 1 cell) falls back to the monolithic fit.
  partition_options part;

  /// Overlays the scenario spec's options onto scenario_opts and
  /// pre-draws enough phases for sim.intervals. Also lifts a scenario
  /// `policy='...'` option into `plan.policy` (the spec option wins),
  /// validates the policy spec, and — when a policy is active — forces
  /// streamed execution (the materialized store has no mask plane;
  /// capture composes fine — the v2 format stores the mask).
  /// Idempotent, and called by prepare_run itself — calling it manually
  /// is only needed to inspect the effective scenario_opts / plan.
  void reconcile();
};

class flags;

/// The shared run flags of the CLIs, overlaid onto `base` where present
/// (an absent flag keeps the base value), then reconciled:
///   --scenario=SPEC --intervals=N --packets=N --oracle --nonstationary
///   --phase-length=N --fraction=F --streamed --chunk=N --policy=SPEC
///   --partition=none|components|bicomp|auto --partition-max-links=N
/// The caller's base carries everything a binary sets itself (topology,
/// seeds, defaults), and its run_cli list decides which of these flags
/// it accepts. Throws flag_error on an unparsable value and spec_error
/// on a bad spec, mode or phase length.
[[nodiscard]] run_config run_config_from_flags(const flags& opts,
                                               run_config base);

/// Reads `--scale`: small (the default) or paper; anything else throws
/// flag_error.
[[nodiscard]] bool paper_scale_from_flags(const flags& opts);

/// One simulated experiment with everything downstream needs. `data`
/// holds the run when prepare_run materialized it, and stays empty
/// otherwise (streamed mode, masked replays) — see materialized().
///
/// The topology is held through a shared_ptr so the grid scheduler's
/// read-only topology cache can hand one generated instance to every
/// run of a (spec, topo_seed) group; `topo()` keeps borrowing
/// semantics for all consumers.
struct run_artifacts {
  std::shared_ptr<const topology> topo_ptr;
  congestion_model model;
  experiment_data data;

  /// Non-null for replayed runs (source scenarios like `trace`): the
  /// interval stream comes from this dataset instead of the simulator,
  /// the topology is the dataset's, and `model` is empty — so the
  /// analytic ground truth does not exist and evaluators must score
  /// from the recorded truth plane (or observation-only when the
  /// dataset carries none).
  std::shared_ptr<const measurement_source> source;

  [[nodiscard]] bool replayed() const noexcept { return source != nullptr; }

  /// Whether `data` holds the run: stream_experiment then replays the
  /// store instead of re-simulating or re-reading the source. (The
  /// store has one row per path once materialize_sink began.)
  [[nodiscard]] bool materialized() const noexcept {
    return data.num_paths() != 0;
  }

  /// Whether per-interval ground truth exists (always for simulated
  /// runs; for replays, only when the dataset stored the plane).
  [[nodiscard]] bool has_truth() const noexcept {
    return source == nullptr || source->has_truth();
  }

  [[nodiscard]] const topology& topo() const noexcept { return *topo_ptr; }

  [[nodiscard]] ground_truth make_truth() const {
    return ground_truth(topo(), model, data.intervals);
  }

  /// Streamed-mode variant: the experiment length cannot come from the
  /// (empty) data, so the caller passes T explicitly.
  [[nodiscard]] ground_truth make_truth(std::size_t intervals) const {
    return ground_truth(topo(), model, intervals);
  }
};

/// Builds the topology, the scenario, and runs the packet simulation
/// into the store (recording the requested capture on that pass).
/// Masked replays stay unmaterialized — the store has no observed-path
/// plane — and are captured by the evaluator's fit pass instead.
/// Reconciles the config first (idempotent), so callers never have to.
/// A non-null `topo` (e.g. from the grid scheduler's topology_cache)
/// skips generation — it must equal make_topology(config.topo,
/// config.topo_seed) for the reproducibility contract to hold.
[[nodiscard]] run_artifacts prepare_run(
    run_config config, std::shared_ptr<const topology> topo = nullptr);

/// Builds topology and scenario only (reconciled), leaving `data`
/// empty — the setup step of the streamed mode.
[[nodiscard]] run_artifacts prepare_topology(
    run_config config, std::shared_ptr<const topology> topo = nullptr);

/// Replays the deterministic interval stream of a prepared run into
/// `sink`. Callable repeatedly: every pass replays the store when the
/// run is materialized, else re-simulates (or, for replayed runs,
/// re-reads) the identical stream. When `config.plan.policy` is set,
/// every pass constructs a fresh policy from the spec and masks the
/// stream through a probe_policy_sink before `sink` sees it, so
/// repeated passes observe the identical masked stream (policies are
/// deterministic in (spec, chunk sequence)).
void stream_experiment(const run_artifacts& run, const run_config& config,
                       measurement_sink& sink);

/// The capture sink of a run whose config requests one
/// (run_config::capture.path), with provenance describing the config;
/// nullptr otherwise. Owned by the caller, attached to whatever pass
/// records the stream. A run without a real truth plane (truth-less
/// replay) never records one, regardless of capture.truth — zeroed
/// matrices must not masquerade as ground truth downstream.
/// (trace_writer is forward-declared here to keep the trace dependency
/// out of this header.)
class trace_writer;
[[nodiscard]] std::unique_ptr<trace_writer> make_capture_writer(
    const run_config& config, const run_artifacts& run);

/// Mask-aware per-interval inference function: the second argument is
/// the interval's observed-path mask (empty = fully observed). The
/// streaming scorers hand it straight from the chunk, so one scorer
/// type serves both full-observation and probe-budget runs.
using masked_infer_fn =
    std::function<bitvec(const bitvec& congested_paths,
                         const bitvec& observed_paths)>;

/// Streaming counterpart: scores per interval as chunks pass through,
/// O(chunk) memory. Attach to a fanout_sink to score several fitted
/// estimators in one replay pass. Detection / FP rates are scored
/// against the FULL truth plane even for masked chunks — the budget
/// pays in detection, honestly.
class streaming_inference_scorer final : public measurement_sink {
 public:
  explicit streaming_inference_scorer(masked_infer_fn infer)
      : infer_(std::move(infer)) {}

  void consume(const measurement_chunk& chunk) override {
    for (std::size_t i = 0; i < chunk.count; ++i) {
      scorer_.add_interval(
          infer_(chunk.congested_paths_at(i), chunk.observed_paths),
          chunk.true_links_at(i));
    }
  }

  [[nodiscard]] inference_metrics result() const { return scorer_.result(); }

 private:
  masked_infer_fn infer_;
  inference_scorer scorer_;
};

/// Observation-only streaming scorer for truth-stripped replays: same
/// shape as streaming_inference_scorer but never touches the (absent)
/// truth plane. Masked chunks restrict the explained / consistency
/// denominators to the observed paths.
class streaming_observation_scorer final : public measurement_sink {
 public:
  explicit streaming_observation_scorer(masked_infer_fn infer)
      : infer_(std::move(infer)) {}

  void begin(const topology& t, std::size_t intervals) override {
    (void)intervals;
    scorer_.emplace(t);
  }
  void consume(const measurement_chunk& chunk) override {
    for (std::size_t i = 0; i < chunk.count; ++i) {
      const bitvec congested = chunk.congested_paths_at(i);
      scorer_->add_interval(infer_(congested, chunk.observed_paths), congested,
                            chunk.observed_paths);
    }
  }

  [[nodiscard]] observation_metrics result() const {
    return scorer_ ? scorer_->result() : observation_metrics{};
  }

 private:
  masked_infer_fn infer_;
  std::optional<observation_scorer> scorer_;
};

}  // namespace ntom

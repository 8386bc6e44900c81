// The registry-driven estimator evaluator shared by the figure benches,
// the CLIs, and the ntom::experiment facade.
#pragma once

#include <string>
#include <vector>

#include "ntom/api/estimator.hpp"
#include "ntom/exp/batch.hpp"
#include "ntom/exp/grid.hpp"

namespace ntom {

/// Which measurement families estimator_cells emits per capable series.
struct estimator_eval_options {
  /// detection_rate / false_positive_rate rows for estimators with the
  /// boolean_inference capability (Fig. 3 metrics).
  bool boolean_metrics = true;

  /// mean_abs_error rows (vs the analytic ground truth, over the
  /// potentially congested links) for estimators with link_estimation
  /// (Fig. 4 metrics).
  bool link_error_metrics = false;
};

/// Cell evaluator over a spec'd estimator list: one measurement series
/// per estimator (series name = estimator_label). Specs are resolved
/// eagerly, so unknown names / bad options fail before any run starts.
///
/// Every evaluation is two passes of the run's interval stream
/// (stream_experiment): one fits the estimators through the chunk
/// protocol, one scores the Boolean ones. Sharding: a materialized run
/// splits into one cell per estimator (each cell replays the shared
/// store), so a heavyweight estimator no longer serializes its run's
/// siblings. Streamed runs stay one cell — their whole point is fitting
/// every estimator from one simulation pass. Either way the
/// concatenated rows equal the unsharded evaluation's rows exactly.
class estimator_cells final : public cell_evaluator {
 public:
  explicit estimator_cells(std::vector<estimator_spec> estimators,
                           estimator_eval_options options = {});

  [[nodiscard]] std::size_t shards(const run_config& config) const override;

  /// Per-run shared state: the partition plan, the analytic ground
  /// truth and the potentially-congested set are pure functions of the
  /// run, computed once by whichever cell needs them first instead of
  /// once per estimator shard.
  [[nodiscard]] std::shared_ptr<void> make_run_state(
      const run_config& config, const run_artifacts& run) const override;

  /// `run_state` must be the run's make_run_state() result.
  [[nodiscard]] std::vector<measurement> eval_cell(
      const run_config& config, const run_artifacts& run, void* run_state,
      std::size_t shard) const override;

  /// The whole-run evaluation (all estimators, shard-free): the rows
  /// the run's cells concatenate to, for callers that evaluate one
  /// prepared run outside run_grid.
  [[nodiscard]] std::vector<measurement> eval_all(
      const run_config& config, const run_artifacts& run) const;

 private:
  std::vector<estimator_spec> estimators_;
  std::vector<std::string> labels_;
  estimator_eval_options options_;
};

}  // namespace ntom

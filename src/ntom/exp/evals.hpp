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
/// The unit of work is one fit: estimators with equal fit_key() share
/// one fitted object. Bayes-Indep is scored from the Independence fit
/// and Bayes-Corr from the Corr-complete fit (with equal options), so a
/// list naming both members of a pair fits that model once per run. A
/// key's representative is its first Boolean-capable member, else its
/// first member; every member still emits only the rows its own
/// capabilities call for (Independence never emits detection rows).
///
/// Every evaluation is two passes of the run's interval stream: one
/// fits each distinct model through the chunk protocol, one scores the
/// Boolean ones. The fit pass is stream_experiment; so is the score
/// pass, unless the fit pass recorded the run's capture, which the
/// score pass then reads back. Sharding: a materialized run splits
/// into one cell per distinct fit (each cell replays the shared
/// store), so a heavyweight fit no longer serializes its run's
/// siblings. Streamed runs stay one cell — their whole point is fitting
/// every model from one simulation pass. A run's rows always follow the
/// estimator list, even when members of a key are not adjacent in it:
/// the cell that finishes the run last emits all of its rows, so the
/// concatenated rows equal the unsharded evaluation's rows exactly.
class estimator_cells final : public cell_evaluator {
 public:
  explicit estimator_cells(std::vector<estimator_spec> estimators,
                           estimator_eval_options options = {});

  /// 1 for streamed runs; else the number of distinct fit keys.
  [[nodiscard]] std::size_t shards(const run_config& config) const override;

  /// Per-run shared state: the partition plan, the analytic ground
  /// truth and the potentially-congested set are pure functions of the
  /// run, computed once by whichever cell needs them first instead of
  /// once per fit shard; sibling cells park their rows there until the
  /// run's last cell joins them.
  [[nodiscard]] std::shared_ptr<void> make_run_state(
      const run_config& config, const run_artifacts& run) const override;

  /// `run_state` must be the run's make_run_state() result.
  [[nodiscard]] std::vector<measurement> eval_cell(
      const run_config& config, const run_artifacts& run, void* run_state,
      std::size_t shard) const override;

  /// The whole-run evaluation (every fit, shard-free): the rows the
  /// run's cells concatenate to, for callers that evaluate one prepared
  /// run outside run_grid.
  [[nodiscard]] std::vector<measurement> eval_all(
      const run_config& config, const run_artifacts& run) const;

 private:
  struct run_state;

  /// Estimators (indices into estimators_) sharing one fit_key.
  struct fit_group {
    std::size_t representative = 0;
    std::vector<std::size_t> members;  ///< ascending (list order).
  };

  /// Fits and scores groups_[first, last) on one prepared run, writing
  /// each member's rows to its slot of `shared.rows`. `first_shard`
  /// marks the evaluation that records a capture no materialize pass
  /// did; that evaluation scores from its capture.
  void eval_groups(std::size_t first, std::size_t last,
                   const run_config& config, const run_artifacts& run,
                   run_state& shared, bool first_shard) const;

  std::vector<estimator_spec> estimators_;
  std::vector<std::string> labels_;
  std::vector<estimator_caps> caps_;
  std::vector<fit_group> groups_;  ///< in order of first appearance.
  estimator_eval_options options_;
};

}  // namespace ntom

#include "ntom/exp/evals.hpp"

#include <atomic>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "ntom/corr/correlation.hpp"
#include "ntom/part/hier_infer.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/trace/trace_reader.hpp"
#include "ntom/trace/trace_writer.hpp"

namespace ntom {

namespace {

/// The run's estimator constructor: monolithic by default; behind the
/// hierarchical adapter when the config carries a non-trivial partition
/// plan (run_config::part). A trivial plan (<= 1 cell) gains nothing and
/// would only add the splitting overhead, so it falls back.
std::unique_ptr<estimator> make_run_estimator(
    const estimator_spec& s,
    const std::shared_ptr<const partition_plan>& plan) {
  if (plan == nullptr || plan->trivial()) return make_estimator(s);
  return make_partitioned_estimator(s, plan);
}

/// The fitted estimators of one evaluation, plus the always-good paths
/// the link-error metrics need.
struct fitted_run {
  std::vector<std::unique_ptr<estimator>> estimators;
  bitvec always_good_paths;
};

/// Fits every estimator from ONE pass of the run's interval stream
/// through the chunk protocol (store-bound fits materialize privately
/// behind it). A pathset_counter with an empty family tracks the
/// always-good paths. `record` attaches the run's capture to the pass.
fitted_run fit_run(const std::vector<const estimator_spec*>& specs,
                   const run_config& config, const run_artifacts& run,
                   const std::shared_ptr<const partition_plan>& plan,
                   bool record) {
  fitted_run out;
  std::vector<estimator_fit_sink> fit_sinks;
  fit_sinks.reserve(specs.size());
  fanout_sink fanout;
  for (const estimator_spec* s : specs) {
    out.estimators.push_back(make_run_estimator(*s, plan));
    fit_sinks.emplace_back(*out.estimators.back());
    fanout.add(&fit_sinks.back());
  }
  pathset_counter observation_tracker;
  fanout.add(&observation_tracker);
  const std::unique_ptr<trace_writer> capture =
      record ? make_capture_writer(config, run) : nullptr;
  if (capture != nullptr) fanout.add(capture.get());

  stream_experiment(run, config, fanout);
  out.always_good_paths = observation_tracker.always_good_paths();
  return out;
}

/// Resolve eagerly: a typo'd estimator name fails here, not on a
/// worker thread mid-batch. Series labels must be unique — duplicates
/// would silently pool two configurations into one aggregate cell.
std::vector<std::string> validated_labels(
    const std::vector<estimator_spec>& estimators) {
  std::vector<std::string> labels;
  labels.reserve(estimators.size());
  for (const estimator_spec& s : estimators) {
    (void)estimator_registry().resolve(s);
    std::string label = estimator_label(s);
    for (const std::string& seen : labels) {
      if (seen == label) {
        throw spec_error("estimator_cells: two estimators share the series "
                         "label '" +
                         label +
                         "' — add a label=... option to disambiguate");
      }
    }
    labels.push_back(std::move(label));
  }
  return labels;
}

std::vector<measurement> concatenated(
    std::vector<std::vector<measurement>>& rows) {
  std::vector<measurement> out;
  for (std::vector<measurement>& r : rows) {
    out.insert(out.end(), std::make_move_iterator(r.begin()),
               std::make_move_iterator(r.end()));
  }
  return out;
}

}  // namespace

/// Per-run values shared by every fit cell of one run; all are pure
/// functions of the run, so the once-initialization is only a compute
/// saving, never a result change.
struct estimator_cells::run_state {
  std::once_flag once;
  std::optional<ground_truth> truth;
  bitvec potcong;

  /// The run's partition plan (run_config::part) — a pure function of
  /// (topology, options), computed by whichever fit cell needs it first
  /// and shared by the siblings.
  std::once_flag plan_once;
  std::shared_ptr<const partition_plan> plan;

  /// Rows per estimator: each cell fills its groups' members'
  /// (disjoint) slots, and the cell that brings `pending` (the run's
  /// shard count) to zero emits them all in list order.
  std::vector<std::vector<measurement>> rows;
  std::atomic<std::size_t> pending{0};
};

void estimator_cells::eval_groups(std::size_t first, std::size_t last,
                                  const run_config& config,
                                  const run_artifacts& run, run_state& shared,
                                  bool first_shard) const {
  if (config.part.mode != partition_mode::none) {
    std::call_once(shared.plan_once, [&] {
      shared.plan = std::make_shared<const partition_plan>(
          make_partition(run.topo(), config.part));
    });
  }
  std::vector<const estimator_spec*> specs;
  for (std::size_t g = first; g < last; ++g) {
    specs.push_back(&estimators_[groups_[g].representative]);
  }
  const bool record = first_shard && !run.materialized();
  const fitted_run fitted = fit_run(specs, config, run, shared.plan, record);

  // Fig. 3 metrics per Boolean-capable fit: one more pass scores every
  // Boolean representative with O(chunk) memory. A replayed dataset
  // without a ground-truth plane scores observation-only instead (the
  // truth matrices would be all-zero).
  const bool truthless = !run.has_truth();
  // A capture the fit pass just closed holds the exact post-policy
  // stream (mask plane included), so the score pass reads it back
  // instead of re-simulating, and applies no policy again. Only a
  // truthful run whose capture dropped the truth plane re-streams.
  const bool score_from_capture = record && !config.capture.path.empty() &&
                                  (truthless || config.capture.truth);
  std::vector<std::optional<inference_metrics>> boolean_metrics(specs.size());
  std::vector<std::optional<observation_metrics>> obs_metrics(specs.size());
  std::vector<std::size_t> boolean_index;
  if (options_.boolean_metrics) {
    for (std::size_t k = 0; k < specs.size(); ++k) {
      if (caps_[groups_[first + k].representative].boolean_inference) {
        boolean_index.push_back(k);
      }
    }
  }
  if (!boolean_index.empty()) {
    std::vector<streaming_inference_scorer> truth_scorers;
    std::vector<streaming_observation_scorer> obs_scorers;
    truth_scorers.reserve(boolean_index.size());
    obs_scorers.reserve(boolean_index.size());
    fanout_sink fanout;
    for (const std::size_t k : boolean_index) {
      const estimator& est = *fitted.estimators[k];
      auto infer = [&est](const bitvec& congested, const bitvec& observed) {
        return est.infer(congested, observed);
      };
      if (truthless) {
        obs_scorers.emplace_back(infer);
        fanout.add(&obs_scorers.back());
      } else {
        truth_scorers.emplace_back(infer);
        fanout.add(&truth_scorers.back());
      }
    }
    if (score_from_capture) {
      trace_reader(config.capture.path)
          .stream(fanout, config.stream.chunk_intervals);
    } else {
      stream_experiment(run, config, fanout);
    }
    for (std::size_t b = 0; b < boolean_index.size(); ++b) {
      if (truthless) {
        obs_metrics[boolean_index[b]] = obs_scorers[b].result();
      } else {
        boolean_metrics[boolean_index[b]] = truth_scorers[b].result();
      }
    }
  }

  for (std::size_t k = 0; k < specs.size(); ++k) {
    const estimator& est = *fitted.estimators[k];
    for (const std::size_t i : groups_[first + k].members) {
      std::vector<measurement>& out = shared.rows[i];
      if (caps_[i].boolean_inference && boolean_metrics[k]) {
        out = inference_measurements(labels_[i], *boolean_metrics[k]);
      } else if (caps_[i].boolean_inference && obs_metrics[k]) {
        out = observation_measurements(labels_[i], *obs_metrics[k]);
      }
      // Link-error metrics need the analytic ground truth, which
      // replayed runs do not have (the dataset records states, not the
      // model).
      if (options_.link_error_metrics && !run.replayed() &&
          caps_[i].link_estimation) {
        // Ground truth and the potentially-congested set are shared by
        // all link-error series of the run; computed once, when needed.
        std::call_once(shared.once, [&] {
          shared.truth.emplace(run.make_truth(config.sim.intervals));
          shared.potcong =
              potentially_congested_links(run.topo(), fitted.always_good_paths);
        });
        out.push_back(
            {labels_[i], "mean_abs_error",
             mean_of(link_absolute_errors(run.topo(), *shared.truth,
                                          est.links(), shared.potcong))});
      }
    }
  }
}

estimator_cells::estimator_cells(std::vector<estimator_spec> estimators,
                                 estimator_eval_options options)
    : estimators_(std::move(estimators)),
      labels_(validated_labels(estimators_)),
      options_(options) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < estimators_.size(); ++i) {
    caps_.push_back(make_estimator(estimators_[i])->caps());
    const std::string key = fit_key(estimators_[i]);
    std::size_t g = 0;
    while (g < keys.size() && keys[g] != key) ++g;
    if (g == keys.size()) {
      keys.push_back(key);
      groups_.push_back({i, {}});
    }
    fit_group& group = groups_[g];
    group.members.push_back(i);
    if (caps_[i].boolean_inference &&
        !caps_[group.representative].boolean_inference) {
      group.representative = i;
    }
  }
}

std::size_t estimator_cells::shards(const run_config& config) const {
  // Streamed runs fit every model from one pass — splitting them would
  // trade the shared pass for per-fit re-simulations.
  if (config.stream.enabled || groups_.empty()) return 1;
  return groups_.size();
}

std::shared_ptr<void> estimator_cells::make_run_state(
    const run_config& config, const run_artifacts& run) const {
  (void)run;
  auto state = std::make_shared<run_state>();
  state->rows.resize(estimators_.size());
  state->pending.store(shards(config));
  return state;
}

std::vector<measurement> estimator_cells::eval_cell(
    const run_config& config, const run_artifacts& run, void* run_state,
    std::size_t shard) const {
  auto& shared = *static_cast<estimator_cells::run_state*>(run_state);
  if (shards(config) == 1) {
    eval_groups(0, groups_.size(), config, run, shared, true);
  } else {
    eval_groups(shard, shard + 1, config, run, shared, shard == 0);
  }
  // The acq_rel decrement orders every sibling's row writes before the
  // last cell's reads.
  if (shared.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return {};
  return concatenated(shared.rows);
}

std::vector<measurement> estimator_cells::eval_all(
    const run_config& config, const run_artifacts& run) const {
  run_state shared;
  shared.rows.resize(estimators_.size());
  eval_groups(0, groups_.size(), config, run, shared, true);
  return concatenated(shared.rows);
}

}  // namespace ntom

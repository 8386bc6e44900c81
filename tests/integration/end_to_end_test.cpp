// Integration tests: the full pipeline at reduced scale, checking the
// paper's qualitative claims end to end (the benches reproduce the
// figures at full fidelity; these tests pin the directions).
#include <gtest/gtest.h>

#include "ntom/api/estimator.hpp"
#include "ntom/corr/correlation.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/tomo/correlation_complete.hpp"

namespace ntom {
namespace {

run_config base_config(const topology_spec& topo,
                       const scenario_spec& scenario) {
  run_config c;
  c.topo = topo;
  c.topo_seed = 11;
  c.scenario = scenario;
  c.scenario_opts.seed = 13;
  c.sim.intervals = 250;
  c.sim.packets_per_path = 150;
  c.sim.seed = 17;
  return c;
}

std::unique_ptr<estimator> fitted(const char* name, const run_artifacts& run) {
  std::unique_ptr<estimator> est = make_estimator(name);
  est->fit(run.topo(), run.data);
  return est;
}

/// Scores a Boolean estimator over every interval of the run the way
/// estimator_cells does: one stream_experiment pass through a
/// streaming_inference_scorer.
inference_metrics score_boolean(const run_artifacts& run,
                                  const run_config& config, const char* name) {
  const auto est = fitted(name, run);
  streaming_inference_scorer scorer(
      [&](const bitvec& congested, const bitvec& observed) {
        return est->infer(congested, observed);
      });
  stream_experiment(run, config, scorer);
  return scorer.result();
}

const char* small_brite = "brite,n=16,hosts=60,paths=120";
const char* small_sparse = "sparse,mid=12,stubs=60,paths=140";

TEST(EndToEndTest, InferenceAccurateOnBriteRandomCongestion) {
  // Fig. 3, first group: everything works on dense topologies with
  // random independent congestion. Oracle monitoring isolates the
  // algorithmic behaviour from probing noise (noise robustness is
  // covered by the probing tests and the fig3 bench).
  auto config =
      base_config(small_brite, "random_congestion");
  config.sim.oracle_monitor = true;
  const auto run = prepare_run(config);
  const auto sparsity = score_boolean(run, config, "sparsity");
  EXPECT_GT(sparsity.detection_rate, 0.75);
  EXPECT_LT(sparsity.false_positive_rate, 0.2);
}

TEST(EndToEndTest, ProbabilityComputationAccurateOnBrite) {
  // Fig. 4(a) direction: errors well under 0.1 on Brite. Probing-noise
  // false positives shrink with the probe budget; use a realistic one
  // (the toy probing test covers the noisy regime).
  auto config =
      base_config(small_brite, "random_congestion");
  config.sim.packets_per_path = 400;
  config.sim.intervals = 400;
  const auto run = prepare_run(config);
  const ground_truth truth = run.make_truth();
  const path_observations obs(run.data);
  const bitvec potcong =
      potentially_congested_links(run.topo(), obs.always_good_paths());

  const auto complete = compute_correlation_complete(run.topo(), run.data);
  const double err = mean_of(link_absolute_errors(
      run.topo(), truth, complete.estimates.to_link_estimates(), potcong));
  EXPECT_LT(err, 0.08);
}

TEST(EndToEndTest, IndependenceWorseUnderCorrelation) {
  // Fig. 4 direction: under No-Independence, the Independence baseline
  // has higher error than Correlation-complete.
  auto config =
      base_config(small_brite, "no_independence");
  config.sim.oracle_monitor = true;
  const auto run = prepare_run(config);
  const ground_truth truth = run.make_truth();
  const path_observations obs(run.data);
  const bitvec potcong =
      potentially_congested_links(run.topo(), obs.always_good_paths());

  const auto indep = fitted("independence", run)->links();
  const auto complete = compute_correlation_complete(run.topo(), run.data);
  const double err_indep =
      mean_of(link_absolute_errors(run.topo(), truth, indep, potcong));
  const double err_complete = mean_of(link_absolute_errors(
      run.topo(), truth, complete.estimates.to_link_estimates(), potcong));
  EXPECT_LT(err_complete, err_indep + 0.01);
}

TEST(EndToEndTest, SparseTopologyHurtsInference) {
  // Fig. 3, last group: the same random-congestion scenario on a
  // Sparse topology degrades Boolean Inference.
  const auto brite_config = base_config(small_brite, "random_congestion");
  const auto sparse_config = base_config(small_sparse, "random_congestion");
  const auto brite_run = prepare_run(brite_config);
  const auto sparse_run = prepare_run(sparse_config);

  const auto brite_m = score_boolean(brite_run, brite_config, "bayes-indep");
  const auto sparse_m =
      score_boolean(sparse_run, sparse_config, "bayes-indep");
  // Degradation shows as worse false positives (the paper: 45% FP) or
  // detection.
  EXPECT_GT(sparse_m.false_positive_rate + (1.0 - sparse_m.detection_rate),
            brite_m.false_positive_rate + (1.0 - brite_m.detection_rate));
}

TEST(EndToEndTest, ProbabilityComputationSurvivesSparseTopology) {
  // §5.4: Probability Computation stays useful on Sparse topologies.
  const auto run = prepare_run(
      base_config(small_sparse, "random_congestion"));
  const ground_truth truth = run.make_truth();
  const path_observations obs(run.data);
  const bitvec potcong =
      potentially_congested_links(run.topo(), obs.always_good_paths());

  const auto complete = compute_correlation_complete(run.topo(), run.data);
  const double err = mean_of(link_absolute_errors(
      run.topo(), truth, complete.estimates.to_link_estimates(), potcong));
  EXPECT_LT(err, 0.15);
}

TEST(EndToEndTest, NonStationarityDoesNotBreakProbabilities) {
  // §4/§5.4: the estimates are time averages; redrawing probabilities
  // mid-run must not inflate the error much.
  auto config =
      base_config(small_brite, "no_independence");
  config.scenario_opts.nonstationary = true;
  config.scenario_opts.phase_length = 25;
  const auto run = prepare_run(config);
  const ground_truth truth = run.make_truth();
  const path_observations obs(run.data);
  const bitvec potcong =
      potentially_congested_links(run.topo(), obs.always_good_paths());

  const auto complete = compute_correlation_complete(run.topo(), run.data);
  const double err = mean_of(link_absolute_errors(
      run.topo(), truth, complete.estimates.to_link_estimates(), potcong));
  EXPECT_LT(err, 0.12);
}

}  // namespace
}  // namespace ntom

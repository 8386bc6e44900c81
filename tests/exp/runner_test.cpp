#include "ntom/exp/runner.hpp"

#include <gtest/gtest.h>

#include "ntom/api/estimator.hpp"

namespace ntom {
namespace {

run_config small_config() {
  run_config c;
  c.topo = "brite,n=10,hosts=30,paths=50";
  c.topo_seed = 3;
  c.sim.intervals = 40;
  c.sim.packets_per_path = 50;
  c.scenario_opts.seed = 4;
  return c;
}

TEST(RunnerTest, PreparesBriteRun) {
  run_config c = small_config();
  const auto run = prepare_run(c);
  EXPECT_GT(run.topo().num_links(), 0u);
  EXPECT_EQ(run.data.intervals, 40u);
  EXPECT_FALSE(run.model.phase_q.empty());
}

TEST(RunnerTest, PreparesSparseRun) {
  run_config c = small_config();
  c.topo = "sparse";
  const auto run = prepare_run(c);
  EXPECT_GT(run.topo().num_links(), 0u);
  EXPECT_GT(run.topo().num_ases(), 5u);
}

TEST(RunnerTest, PreparesToyRun) {
  run_config c = small_config();
  c.topo = "toy,case=2";
  const auto run = prepare_run(c);
  EXPECT_EQ(run.topo().num_links(), 4u);
  EXPECT_EQ(run.topo().num_paths(), 3u);
}

TEST(RunnerTest, UnknownTopologyThrows) {
  run_config c = small_config();
  c.topo = "warts";
  EXPECT_THROW((void)prepare_run(c), spec_error);
}

TEST(RunnerTest, ReconcileComputesPhases) {
  run_config c = small_config();
  c.scenario_opts.nonstationary = true;
  c.scenario_opts.phase_length = 7;
  c.sim.intervals = 40;
  c.reconcile();
  EXPECT_EQ(c.scenario_opts.num_phases, 6u);  // ceil(40/7).
}

TEST(RunnerTest, ReconcileSetsAtLeastOnePhase) {
  // scenario_params leaves num_phases unset (0); every reconciled
  // config has a count the scenario builders accept.
  run_config c = small_config();
  ASSERT_EQ(c.scenario_opts.num_phases, 0u);
  c.reconcile();
  EXPECT_EQ(c.scenario_opts.num_phases, 1u);
  c.scenario = "no_stationarity";
  c.sim.intervals = 120;
  c.reconcile();
  EXPECT_EQ(c.scenario_opts.num_phases, 3u);  // ceil(120/50).
}

TEST(RunnerTest, ReconcileResolvesSpecOptionsAndIsIdempotent) {
  run_config c = small_config();
  c.scenario = "random_congestion,nonstationary,phase_length=8,fraction=0.2";
  c.sim.intervals = 40;
  c.reconcile();
  EXPECT_TRUE(c.scenario_opts.nonstationary);
  EXPECT_EQ(c.scenario_opts.phase_length, 8u);
  EXPECT_DOUBLE_EQ(c.scenario_opts.congestable_fraction, 0.2);
  EXPECT_EQ(c.scenario_opts.num_phases, 5u);  // ceil(40/8).
  const scenario_params once = c.scenario_opts;
  c.reconcile();
  EXPECT_EQ(c.scenario_opts.nonstationary, once.nonstationary);
  EXPECT_EQ(c.scenario_opts.phase_length, once.phase_length);
  EXPECT_EQ(c.scenario_opts.num_phases, once.num_phases);
  EXPECT_DOUBLE_EQ(c.scenario_opts.congestable_fraction,
                   once.congestable_fraction);
}

TEST(RunnerTest, NonStationaryRunHasPhases) {
  run_config c = small_config();
  c.scenario_opts.nonstationary = true;
  c.scenario_opts.phase_length = 10;
  const auto run = prepare_run(c);
  EXPECT_EQ(run.model.num_phases(), 4u);
}

TEST(RunnerTest, PrepareRunReconcilesItself) {
  // A caller who sets the nonstationarity knobs through the spec and
  // never touches reconcile() must still get enough pre-drawn phases.
  run_config c = small_config();
  c.scenario = "no_stationarity,phase_length=10";
  const auto run = prepare_run(c);
  EXPECT_EQ(run.model.num_phases(), 4u);  // ceil(40/10).
}

TEST(RunnerTest, MakeTruthUsesExperimentLength) {
  run_config c = small_config();
  const auto run = prepare_run(c);
  const ground_truth truth = run.make_truth();
  // All congestable links have probability in (0, 1].
  run.model.congestable_links.for_each([&](std::size_t e) {
    const double p = truth.link_congestion_probability(static_cast<link_id>(e));
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
  });
}

TEST(RunnerTest, ScoreInferencePerfectOracle) {
  run_config c = small_config();
  const auto run = prepare_run(c);
  // A cheating "inferencer" that returns the truth scores perfectly.
  std::size_t i = 0;
  streaming_inference_scorer scorer([&](const bitvec&, const bitvec&) {
    return run.data.true_links_at(i++);
  });
  stream_experiment(run, c, scorer);
  const inference_metrics metrics = scorer.result();
  EXPECT_DOUBLE_EQ(metrics.detection_rate, 1.0);
  EXPECT_DOUBLE_EQ(metrics.false_positive_rate, 0.0);
}

TEST(RunnerTest, ScoreInferenceMatchesAcrossModes) {
  // Scoring streams the run, so a materialized run (store replay) and a
  // streamed one (re-simulation) score the same intervals identically.
  const run_config c = small_config();
  const auto materialized = prepare_run(c);
  const auto streamed = prepare_topology(c);
  ASSERT_TRUE(materialized.materialized());
  ASSERT_FALSE(streamed.materialized());
  const auto score = [&](const run_artifacts& run) {
    const auto est = make_estimator("sparsity");
    estimator_fit_sink fit(*est);
    stream_experiment(run, c, fit);
    streaming_inference_scorer scorer(
        [&](const bitvec& congested, const bitvec& observed) {
          return est->infer(congested, observed);
        });
    stream_experiment(run, c, scorer);
    return scorer.result();
  };
  const inference_metrics a = score(materialized);
  const inference_metrics b = score(streamed);
  EXPECT_GT(a.detection_rate, 0.0);
  EXPECT_EQ(a.detection_rate, b.detection_rate);  // bitwise.
  EXPECT_EQ(a.false_positive_rate, b.false_positive_rate);
}

TEST(RunnerTest, TopologyLabels) {
  EXPECT_EQ(topology_label("brite"), "Brite");
  EXPECT_EQ(topology_label("sparse,stubs=40"), "Sparse");
  EXPECT_EQ(topology_label("brite,label=MyNet"), "MyNet");
}

TEST(RunnerTest, DeterministicAcrossCalls) {
  const auto a = prepare_run(small_config());
  const auto b = prepare_run(small_config());
  EXPECT_EQ(a.topo().num_links(), b.topo().num_links());
  EXPECT_TRUE(a.data.true_links == b.data.true_links);
}

}  // namespace
}  // namespace ntom

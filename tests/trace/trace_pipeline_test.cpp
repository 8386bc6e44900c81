// Capture -> replay equivalence across the whole estimator pipeline:
// a corpus recorded from a registered scenario must replay through
// estimator_cells / the experiment facade / run_grid with bit-identical
// per-estimator rows and aggregates, at any capture or replay chunk
// size; truth-stripped corpora must still run end to end with
// observation-only scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ntom/api/experiment.hpp"
#include "ntom/exp/evals.hpp"
#include "ntom/trace/import.hpp"
#include "ntom/trace/trace_reader.hpp"

namespace ntom {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

run_config base_config(std::size_t intervals = 60) {
  run_config config;
  config.topo = "brite,n=10,hosts=30,paths=60";
  config.topo_seed = 5;
  config.scenario = "no_independence";
  config.scenario_opts.seed = 7;
  config.sim.intervals = intervals;
  config.sim.packets_per_path = 50;
  config.sim.seed = 9;
  return config;
}

spec trace_spec(const std::string& path) {
  return spec("trace").with_option("file", path);
}

bool rows_identical(const std::vector<measurement>& a,
                    const std::vector<measurement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].series != b[i].series || a[i].metric != b[i].metric ||
        a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

bool has_metric(const std::vector<measurement>& rows,
                const std::string& metric) {
  for (const measurement& m : rows) {
    if (m.metric == metric) return true;
  }
  return false;
}

// Mixes streaming (sparsity, independence) and store-needing
// (bayes-corr) estimators so both fit paths run.
const std::vector<estimator_spec> kEstimators = {"sparsity", "independence",
                                                 "bayes-corr"};

TEST(TracePipelineTest, CapturedRunReplaysBitIdentically) {
  run_config config = base_config();
  const std::string path = temp_path("pipeline_materialized.trc");
  config.capture.path = path;  // capture rides prepare_run's one pass.

  const estimator_cells cells(
      kEstimators, {.boolean_metrics = true, .link_error_metrics = false});
  const run_artifacts live = prepare_run(config);
  const auto live_rows = cells.eval_all(config, live);

  for (const std::size_t chunk : {1ul, 97ul, 1024ul}) {
    run_config replay;
    replay.scenario = trace_spec(path);
    replay.stream.chunk_intervals = chunk;
    const run_artifacts replayed = prepare_run(replay);
    EXPECT_TRUE(replayed.replayed());
    EXPECT_TRUE(replayed.has_truth());
    EXPECT_TRUE(rows_identical(live_rows, cells.eval_all(replay, replayed)))
        << "replay chunk " << chunk;

    // Streamed replay too: the reader is the chunk source.
    run_config streamed = replay;
    streamed.stream.enabled = true;
    const run_artifacts streamed_run = prepare_topology(streamed);
    EXPECT_TRUE(
        rows_identical(live_rows, cells.eval_all(streamed, streamed_run)))
        << "streamed replay chunk " << chunk;
  }
  std::remove(path.c_str());
}

TEST(TracePipelineTest, StreamedFitPassCaptures) {
  // In streamed mode the capture rides the estimator fit pass — prepare
  // never materializes.
  run_config config = base_config();
  config.stream.enabled = true;
  config.stream.chunk_intervals = 7;
  const std::string path = temp_path("pipeline_streamed.trc");
  config.capture.path = path;

  const estimator_cells cells(
      kEstimators, {.boolean_metrics = true, .link_error_metrics = false});
  const run_artifacts live = prepare_topology(config);
  const auto live_rows = cells.eval_all(config, live);

  run_config replay;
  replay.scenario = trace_spec(path);
  const run_artifacts replayed = prepare_run(replay);
  EXPECT_TRUE(rows_identical(live_rows, cells.eval_all(replay, replayed)));
  std::remove(path.c_str());
}

/// Evaluates `config` streamed twice, without a capture and with one
/// at `name`, and demands `==` rows. With a capture the score pass
/// reads the file the fit pass just closed (or, for a truthful run
/// whose capture drops truth, re-streams); either way the rows must
/// not move.
void expect_capture_keeps_rows(const estimator_cells& cells, run_config config,
                               const std::string& name) {
  config.stream.enabled = true;
  config.capture.path.clear();
  const auto plain = cells.eval_all(config, prepare_topology(config));
  ASSERT_FALSE(plain.empty());

  const std::string path = temp_path(name);
  config.capture.path = path;
  const auto captured = cells.eval_all(config, prepare_topology(config));
  ASSERT_EQ(plain.size(), captured.size()) << name;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].series, captured[i].series) << name;
    EXPECT_EQ(plain[i].metric, captured[i].metric) << name;
    EXPECT_EQ(plain[i].value, captured[i].value)
        << name << ": " << plain[i].series << "/" << plain[i].metric;
  }
  // The capture is complete and holds the run's stream.
  EXPECT_GT(trace_reader(path).intervals(), 0u) << name;
  std::remove(path.c_str());
}

TEST(TracePipelineTest, StreamedScoreFromCaptureMatchesResimulation) {
  const estimator_cells cells(
      kEstimators, {.boolean_metrics = true, .link_error_metrics = true});

  // A truth capture, at several chunk sizes (T=300 spans two default
  // chunks).
  for (const std::size_t chunk : {1ul, 7ul, default_chunk_intervals}) {
    run_config config = base_config(300);
    config.stream.chunk_intervals = chunk;
    expect_capture_keeps_rows(cells, config,
                              "score_truth_" + std::to_string(chunk) + ".trc");
  }

  // A truthful run whose capture drops truth: the re-streaming fallback.
  run_config no_truth = base_config(300);
  no_truth.stream.chunk_intervals = 7;
  no_truth.capture.truth = false;
  expect_capture_keeps_rows(cells, no_truth, "score_no_truth.trc");

  // A probe-budget policy: the capture stores the mask plane, and the
  // score pass must not mask again.
  const estimator_cells streaming_cells(
      {"sparsity", "bayes-indep"},
      {.boolean_metrics = true, .link_error_metrics = true});
  for (const std::size_t chunk : {1ul, 7ul, default_chunk_intervals}) {
    run_config masked = base_config(300);
    masked.stream.chunk_intervals = chunk;
    masked.plan.policy = "uniform,frac=0.5";
    expect_capture_keeps_rows(
        streaming_cells, masked,
        "score_masked_" + std::to_string(chunk) + ".trc");
  }

  // Replayed sources captured again, with and without a truth plane
  // (the truth-less one scores observation-only from the capture).
  for (const bool truth : {true, false}) {
    run_config origin = base_config(300);
    origin.capture.truth = truth;
    const std::string source = temp_path("score_source.trc");
    origin.capture.path = source;
    (void)prepare_run(origin);

    run_config replay;
    replay.scenario = trace_spec(source);
    replay.stream.chunk_intervals = 7;
    expect_capture_keeps_rows(cells, replay,
                              truth ? "score_recapture_truth.trc"
                                    : "score_recapture_no_truth.trc");
    std::remove(source.c_str());
  }
}

TEST(TracePipelineTest, CorpusRidesTheFacadeAndGrid) {
  // Capture a 2-scenario x 2-replica corpus through the facade (grid
  // scheduler, capture riding each run), replay every file as a trace
  // arm through the same facade, and demand bit-identical per-run
  // measurement rows.
  const std::string dir = temp_path("corpus");
  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::remove(entry.path());
  }

  batch_params params;
  params.threads = 2;
  params.base_seed = 42;
  const batch_report live_report =
      experiment()
          .with_topology("brite,n=10,hosts=30,paths=60")
          .with_scenario("random_congestion")
          .with_scenario("srlg")
          .with_estimators({"sparsity", "bayes-indep"})
          .measure_link_error(false)
          .intervals(50)
          .replicas(2)
          .with_capture({dir})
          .run(params);

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), live_report.runs().size());

  experiment replayed;
  replayed.with_topology("toy,label=replay");
  for (const std::string& f : files) {
    replayed.with_scenario(trace_spec(f).with_option(
        "label", std::filesystem::path(f).stem().string()));
  }
  replayed.with_estimators({"sparsity", "bayes-indep"});
  replayed.measure_link_error(false);
  const batch_report replay_report = replayed.run(params);
  ASSERT_EQ(replay_report.runs().size(), files.size());

  // Capture file names end in the live run's index, so pair each
  // replay run (labelled by file stem) with its origin and compare the
  // rows bit-for-bit.
  for (const run_result& replay_run : replay_report.runs()) {
    const std::string stem = replay_run.label.substr(
        replay_run.label.find('/') + 1);
    const std::size_t live_index =
        std::stoul(stem.substr(stem.rfind('_') + 1));
    ASSERT_LT(live_index, live_report.runs().size());
    EXPECT_TRUE(rows_identical(live_report.runs()[live_index].measurements,
                               replay_run.measurements))
        << "corpus file " << stem;
  }
  for (const std::string& f : files) std::remove(f.c_str());
}

TEST(TracePipelineTest, TruthStrippedReplayScoresObservationOnly) {
  run_config config = base_config();
  config.capture.truth = false;
  const std::string path = temp_path("truthless.trc");
  config.capture.path = path;
  (void)prepare_run(config);

  const estimator_cells cells(
      kEstimators, {.boolean_metrics = true, .link_error_metrics = true});
  run_config replay;
  replay.scenario = trace_spec(path);
  const run_artifacts replayed = prepare_run(replay);
  EXPECT_FALSE(replayed.has_truth());
  const auto rows = cells.eval_all(replay, replayed);

  // Observation-only rows for Boolean-capable estimators; never truth
  // metrics, never link errors (no analytic model on replay).
  EXPECT_TRUE(has_metric(rows, "explained_rate"));
  EXPECT_TRUE(has_metric(rows, "consistency_rate"));
  EXPECT_TRUE(has_metric(rows, "inferred_links_mean"));
  EXPECT_FALSE(has_metric(rows, "detection_rate"));
  EXPECT_FALSE(has_metric(rows, "mean_abs_error"));

  // Streamed scoring pass produces the same observation rows.
  run_config streamed = replay;
  streamed.stream.enabled = true;
  streamed.stream.chunk_intervals = 13;
  const run_artifacts streamed_run = prepare_topology(streamed);
  EXPECT_TRUE(rows_identical(rows, cells.eval_all(streamed, streamed_run)));
  std::remove(path.c_str());
}

TEST(TracePipelineTest, RecapturingTruthlessReplayStaysTruthless) {
  // Re-recording a replayed truth-less source must not promote its
  // zeroed truth matrices into a "real" plane: the derived dataset
  // stays truth-less even though capture_truth defaults to true.
  run_config config = base_config();
  config.capture.truth = false;
  const std::string original = temp_path("derived_src.trc");
  config.capture.path = original;
  (void)prepare_run(config);

  run_config replay;
  replay.scenario = trace_spec(original);
  const std::string derived = temp_path("derived_out.trc");
  replay.capture.path = derived;
  const run_artifacts replayed = prepare_run(replay);
  EXPECT_FALSE(replayed.has_truth());

  const trace_reader reader(derived);
  EXPECT_FALSE(reader.has_truth());
  std::remove(original.c_str());
  std::remove(derived.c_str());
}

TEST(TracePipelineTest, ImperfectReplayIsDeterministic) {
  run_config config = base_config();
  const std::string path = temp_path("imperfect.trc");
  config.capture.path = path;
  (void)prepare_run(config);

  run_config replay;
  replay.scenario = trace_spec(path).with_option(
      "imperfect", "drop,p=0.2,seed=4;subsample,stride=2");
  const run_artifacts a = prepare_run(replay);
  const run_artifacts b = prepare_run(replay);
  ASSERT_GT(a.data.intervals, 0u);
  EXPECT_LT(a.data.intervals, 35u);  // ~60 * 0.8 / 2.
  EXPECT_EQ(a.data.intervals, b.data.intervals);
  EXPECT_TRUE(a.data.path_good == b.data.path_good);
  std::remove(path.c_str());
}

TEST(TracePipelineTest, TraceScenarioErrors) {
  run_config missing_option;
  missing_option.scenario = "trace";
  EXPECT_THROW((void)prepare_topology(missing_option), spec_error);

  run_config missing_file;
  missing_file.scenario = trace_spec(temp_path("absent.trc"));
  EXPECT_THROW((void)prepare_topology(missing_file), trace_error);

  // Unknown options are rejected by the registry whitelist.
  EXPECT_THROW((void)scenario_registry().resolve(
                   spec("trace").with_option("bogus", "1")),
               spec_error);
}

TEST(TracePipelineTest, ImporterEndToEnd) {
  const std::string text_path = temp_path("loss.txt");
  {
    std::ofstream out(text_path);
    out << "# TopoConfluence-style per-path loss summary\n"
           "ntom-path-loss 1\n"
           "paths 3 intervals 4\n"
           "0.00 0.10 0.00\n"
           "0.20 0.00 0.00\n"
           "0.00 0.00 0.00\n"
           "0.90 0.90 0.00\n";
  }
  const std::string trc_path = temp_path("imported.trc");
  import_options options;
  options.loss_threshold = 0.05;
  const import_result result =
      import_path_loss_file(text_path, trc_path, options);
  EXPECT_EQ(result.paths, 3u);
  EXPECT_EQ(result.intervals, 4u);
  EXPECT_EQ(result.congested_observations, 4u);

  const trace_reader reader(trc_path);
  EXPECT_FALSE(reader.has_truth());
  EXPECT_EQ(reader.topology_ptr()->num_paths(), 3u);
  EXPECT_EQ(reader.topology_ptr()->num_links(), 3u);

  run_config replay;
  replay.scenario = trace_spec(trc_path);
  const run_artifacts run = prepare_run(replay);
  ASSERT_EQ(run.data.intervals, 4u);
  // Interval 0: path 1 congested (loss 0.10 > 0.05).
  EXPECT_TRUE(run.data.congested_paths_at(0).test(1));
  EXPECT_FALSE(run.data.congested_paths_at(0).test(0));
  // Interval 3: paths 0 and 1 congested.
  EXPECT_TRUE(run.data.congested_paths_at(3).test(0));
  EXPECT_TRUE(run.data.congested_paths_at(3).test(1));
  EXPECT_FALSE(run.data.congested_paths_at(3).test(2));

  // The degenerate topology supports the estimator pipeline.
  const auto rows = estimator_cells({"sparsity"}).eval_all(replay, run);
  EXPECT_TRUE(has_metric(rows, "explained_rate"));

  std::remove(text_path.c_str());
  std::remove(trc_path.c_str());
}

TEST(LossClassifierTest, BoundaryIsGood) {
  // A loss exactly at the threshold is good; only a loss above it marks
  // the path congested.
  std::istringstream in(
      "ntom-path-loss 1\n"
      "paths 3 intervals 1\n"
      "0.05 0.0500001 0.0\n");
  const std::string trc_path = temp_path("boundary.trc");
  import_options options;
  options.loss_threshold = 0.05;
  EXPECT_EQ(import_path_loss(in, trc_path, options).congested_observations,
            1u);

  run_config replay;
  replay.scenario = trace_spec(trc_path);
  const run_artifacts run = prepare_run(replay);
  EXPECT_FALSE(run.data.congested_paths_at(0).test(0));
  EXPECT_TRUE(run.data.congested_paths_at(0).test(1));
  EXPECT_FALSE(run.data.congested_paths_at(0).test(2));
  std::remove(trc_path.c_str());
}

TEST(TracePipelineTest, ImporterRejectsMalformedInput) {
  const std::string out = temp_path("bad_import.trc");
  const auto import_text = [&](const std::string& text) {
    std::istringstream in(text);
    return import_path_loss(in, out);
  };
  EXPECT_THROW((void)import_text("nonsense\n"), trace_error);
  EXPECT_THROW((void)import_text("ntom-path-loss 1\npaths 0 intervals 2\n"),
               trace_error);
  EXPECT_THROW(
      (void)import_text("ntom-path-loss 1\npaths 2 intervals 1\n0.5\n"),
      trace_error);
  EXPECT_THROW((void)import_text(
                   "ntom-path-loss 1\npaths 2 intervals 1\n0.5 2.0\n"),
               trace_error);
  EXPECT_THROW((void)import_text(
                   "ntom-path-loss 1\npaths 1 intervals 1\n0.5 junk\n"),
               trace_error);
  EXPECT_THROW((void)import_text("ntom-path-loss 1\npaths 1 intervals 2\n"
                                 "0.5\n"),
               trace_error);
  std::remove(out.c_str());
}

}  // namespace
}  // namespace ntom

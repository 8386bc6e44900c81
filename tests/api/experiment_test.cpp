#include "ntom/api/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace ntom {
namespace {

experiment tiny_experiment() {
  experiment exp;
  exp.with_topology("brite,n=8,routers=3,hosts=20,paths=30")
      .with_topology("toy,label=Toy")
      .with_scenario("random_congestion")
      .with_scenario("no_stationarity,phase_length=10")
      .with_estimator("sparsity")
      .replicas(2);
  sim_params sim;
  sim.intervals = 20;
  sim.packets_per_path = 30;
  exp.with_sim(sim);
  return exp;
}

TEST(ExperimentTest, BuildsTheFullGrid) {
  const std::vector<run_spec> specs = tiny_experiment().specs();
  // 2 replicas x 2 topologies x 2 scenarios.
  ASSERT_EQ(specs.size(), 8u);
  // Labels are "<topology>/<scenario>"; seed_group is the replica, so
  // scenario arms within a replica share the topology draw.
  EXPECT_EQ(specs[0].label, "Brite/Random Congestion");
  EXPECT_EQ(specs[1].label, "Brite/No Stationarity");
  EXPECT_EQ(specs[2].label, "Toy/Random Congestion");
  EXPECT_EQ(specs[0].seed_group, 0u);
  EXPECT_EQ(specs[4].seed_group, 1u);
  EXPECT_EQ(specs[4].label, specs[0].label);  // replica repeats the grid.
  // The scenario spec's options ride along into the config.
  EXPECT_EQ(specs[1].config.scenario.get_int("phase_length", 0), 10);
}

TEST(ExperimentTest, InvalidSpecsFailEagerly) {
  experiment exp;
  EXPECT_THROW(exp.with_topology("hypercube"), spec_error);
  EXPECT_THROW(exp.with_scenario("random_congestion,surge=2"), spec_error);
  EXPECT_THROW(exp.with_estimator("oracle"), spec_error);
  // The cell evaluator resolves its list before any run starts.
  EXPECT_THROW((void)estimator_cells({"no-such-estimator"}), spec_error);
}

TEST(ExperimentTest, DuplicateGridLabelsThrow) {
  // Two brite arms that differ only in options would aggregate into one
  // cell; specs() must refuse unless the user disambiguates via label=.
  experiment exp;
  exp.with_topology("brite").with_topology("brite,n=40");
  EXPECT_THROW((void)exp.specs(), spec_error);

  experiment labelled;
  labelled.with_topology("brite").with_topology("brite,n=40,label=Brite40");
  EXPECT_NO_THROW((void)labelled.specs());
}

TEST(ExperimentTest, DuplicateEstimatorSeriesThrow) {
  EXPECT_THROW((void)estimator_cells({"corr-complete",
                                      "corr-complete,min_all_good=5"}),
               spec_error);
  EXPECT_NO_THROW((void)estimator_cells(
      {"corr-complete", "corr-complete,min_all_good=5,label=Strict"}));
}

TEST(ExperimentTest, RunIsBitIdenticalAcrossThreadCounts) {
  const experiment exp = tiny_experiment();
  const batch_report serial = exp.run({.threads = 1, .base_seed = 21});
  const batch_report parallel = exp.run({.threads = 4, .base_seed = 21});
  const auto a = serial.summarize();
  const auto b = parallel.summarize();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].series, b[i].series);
    EXPECT_EQ(a[i].mean, b[i].mean);  // bit-identical, not just close.
    EXPECT_EQ(a[i].stddev, b[i].stddev);
    EXPECT_EQ(a[i].p90, b[i].p90);
  }
}

TEST(ExperimentTest, EmitsSeriesPerEstimatorCapability) {
  experiment exp;
  exp.with_topology("brite,n=8,routers=3,hosts=20,paths=30")
      .with_scenario("random_congestion")
      .with_estimator("sparsity")        // boolean only.
      .with_estimator("corr-complete");  // link only.
  sim_params sim;
  sim.intervals = 20;
  sim.packets_per_path = 30;
  exp.with_sim(sim);
  const batch_report report = exp.run({.threads = 1, .base_seed = 3});

  const auto cells = report.summarize();
  const auto has_cell = [&](const char* series, const char* metric) {
    return std::any_of(cells.begin(), cells.end(), [&](const metric_summary& c) {
      return c.series == series && c.metric == metric;
    });
  };
  EXPECT_TRUE(has_cell("Sparsity", "detection_rate"));
  EXPECT_TRUE(has_cell("Sparsity", "false_positive_rate"));
  EXPECT_FALSE(has_cell("Sparsity", "mean_abs_error"));
  EXPECT_TRUE(has_cell("Corr-complete", "mean_abs_error"));
  EXPECT_FALSE(has_cell("Corr-complete", "detection_rate"));
}

TEST(ExperimentTest, DefaultsCoverTheFigThreeAlgorithms) {
  experiment exp;
  sim_params sim;
  sim.intervals = 15;
  sim.packets_per_path = 20;
  exp.with_sim(sim);
  exp.with_topology("brite,n=8,routers=3,hosts=20,paths=30");
  const batch_report report = exp.run({.threads = 1, .base_seed = 1});
  const auto cells = report.summarize();
  for (const char* series : {"Sparsity", "Bayes-Indep", "Bayes-Corr"}) {
    EXPECT_TRUE(std::any_of(cells.begin(), cells.end(),
                            [&](const metric_summary& cell) {
                              return cell.series == series &&
                                     cell.metric == "detection_rate";
                            }))
        << series;
  }
  ASSERT_EQ(report.runs().size(), 1u);
  EXPECT_EQ(report.runs()[0].label, "Brite/Random Congestion");
}

TEST(ExperimentTest, GroupedBuildersMirrorRunConfigGroups) {
  experiment exp = tiny_experiment();
  exp.with_streaming({.enabled = true, .chunk_intervals = 96})
      .with_capture({.path = "runs/cap", .truth = false});
  for (const run_spec& spec : exp.specs()) {
    EXPECT_TRUE(spec.config.stream.enabled);
    EXPECT_EQ(spec.config.stream.chunk_intervals, 96u);
    // The capture directory expands to one .trc per run.
    EXPECT_EQ(spec.config.capture.path.rfind("runs/cap/", 0), 0u)
        << spec.config.capture.path;
    EXPECT_NE(spec.config.capture.path.find(".trc"), std::string::npos);
    EXPECT_FALSE(spec.config.capture.truth);
  }
}

TEST(ExperimentTest, DescribeRegistriesTextSelectors) {
  // The whole catalogue: every registry's heading, then the grammar.
  const std::string all = describe_registries();
  EXPECT_EQ(all.rfind("Topologies:\n", 0), 0u) << all;
  for (const char* heading :
       {"\nScenarios:\n", "\nEstimators:\n",
        "\nImperfections (trace capture/replay decorators):\n",
        "\nProbe policies (measurement-budget planners):\n",
        "\nSIMD kernel dispatch (bit kernels, CRC-32):\n  active="}) {
    EXPECT_NE(all.find(heading), std::string::npos) << heading;
  }
  EXPECT_NE(all.find("\nSpec grammar: "), std::string::npos);
  EXPECT_EQ(describe_registries(""), all);
  EXPECT_EQ(describe_registries("true"), all);
  // One registry: its short heading and only its entries.
  const std::string estimators = describe_registries("estimators");
  EXPECT_EQ(estimators,
            "Estimators:\n" + estimator_registry().describe());
  EXPECT_EQ(estimators.find("Scenarios:"), std::string::npos);
  EXPECT_EQ(describe_registries("topos"), describe_registries("topologies"));
  // One component: that entry's doc block, whatever registry it is in.
  EXPECT_EQ(describe_registries("srlg"), scenario_registry().describe("srlg"));
  // Unknown selectors throw and name the text flag.
  try {
    (void)describe_registries("no_such_thing");
    ADD_FAILURE() << "expected spec_error";
  } catch (const spec_error& err) {
    const std::string what = err.what();
    EXPECT_EQ(what.rfind("--list: 'no_such_thing'", 0), 0u) << what;
  }
}

TEST(ExperimentTest, DescribeRegistriesJsonSelectors) {
  // The whole catalogue is one object with a key per registry.
  const std::string all = describe_registries_json();
  for (const char* key :
       {"\"topologies\":", "\"scenarios\":", "\"estimators\":",
        "\"imperfections\":"}) {
    EXPECT_NE(all.find(key), std::string::npos) << key;
  }
  // Selectors narrow to an object holding just that registry's array.
  const std::string estimators = describe_registries_json("estimators");
  EXPECT_EQ(estimators.rfind("{\"estimators\": [", 0), 0u) << estimators;
  EXPECT_NE(estimators.find("\"name\": \"independence\""), std::string::npos);
  EXPECT_EQ(estimators.find("\"scenarios\""), std::string::npos);
  // A registered name yields that entry's bare object, whatever registry
  // it lives in.
  const std::string one = describe_registries_json("hotspot_drift");
  EXPECT_EQ(one.front(), '{');
  EXPECT_NE(one.find("\"name\": \"hotspot_drift\""), std::string::npos);
  // Unknown selectors mention the flag that got the user here.
  try {
    (void)describe_registries_json("no_such_thing");
    ADD_FAILURE() << "expected spec_error";
  } catch (const spec_error& err) {
    EXPECT_NE(std::string(err.what()).find("--list-json"), std::string::npos);
  }
}

}  // namespace
}  // namespace ntom

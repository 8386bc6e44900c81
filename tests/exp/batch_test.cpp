#include "ntom/exp/batch.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "ntom/exp/grid.hpp"

namespace ntom {
namespace {

run_config tiny_config() {
  run_config c;
  c.topo = "brite,n=8,routers=3,hosts=20,paths=30";
  c.sim.intervals = 20;
  c.sim.packets_per_path = 30;
  return c;
}

/// Cheap deterministic eval: statistics of the simulated data itself.
std::vector<measurement> count_eval(const run_config&,
                                    const run_artifacts& run) {
  const double congested = static_cast<double>(run.data.true_links.count());
  return {{"sim", "congested_link_intervals", congested},
          {"sim", "paths", static_cast<double>(run.topo().num_paths())}};
}

/// Whole-run evaluator: one cell per run, evaluated by `fn`.
template <typename Fn>
class run_cells final : public cell_evaluator {
 public:
  explicit run_cells(Fn fn) : fn_(std::move(fn)) {}

  [[nodiscard]] std::vector<measurement> eval_cell(
      const run_config& config, const run_artifacts& run, void* /*run_state*/,
      std::size_t /*shard*/) const override {
    return fn_(config, run);
  }

 private:
  Fn fn_;
};

std::vector<run_spec> tiny_specs(std::size_t count) {
  std::vector<run_spec> specs;
  for (std::size_t i = 0; i < count; ++i) {
    specs.push_back({"grp" + std::to_string(i % 2), tiny_config()});
  }
  return specs;
}

TEST(DeriveRunSeedsTest, PureFunctionOfBaseSeedAndIndex) {
  const run_config a = derive_run_seeds(tiny_config(), 99, 3, 3);
  const run_config b = derive_run_seeds(tiny_config(), 99, 3, 3);
  EXPECT_EQ(a.topo_seed, b.topo_seed);
  EXPECT_EQ(a.scenario_opts.seed, b.scenario_opts.seed);
  EXPECT_EQ(a.sim.seed, b.sim.seed);
}

TEST(DeriveRunSeedsTest, DistinctAcrossIndicesAndSeeds) {
  const run_config a = derive_run_seeds(tiny_config(), 99, 0, 0);
  const run_config b = derive_run_seeds(tiny_config(), 99, 1, 1);
  const run_config c = derive_run_seeds(tiny_config(), 100, 0, 0);
  EXPECT_NE(a.sim.seed, b.sim.seed);
  EXPECT_NE(a.sim.seed, c.sim.seed);
  EXPECT_NE(a.topo_seed, a.sim.seed);  // streams differ within a run.
}

TEST(DeriveRunSeedsTest, SharedTopoGroupSharesTopologySeedsOnly) {
  // Two scenario arms of one replica: same topology, different
  // scenario/sim draws.
  const run_config a = derive_run_seeds(tiny_config(), 99, 0, /*group=*/0);
  const run_config b = derive_run_seeds(tiny_config(), 99, 1, /*group=*/0);
  EXPECT_EQ(a.topo_seed, b.topo_seed);
  EXPECT_NE(a.scenario_opts.seed, b.scenario_opts.seed);
  EXPECT_NE(a.sim.seed, b.sim.seed);
}

TEST(BatchRunnerTest, SeedGroupGivesArmsTheSameTopology) {
  std::vector<run_spec> specs = tiny_specs(2);
  specs[0].seed_group = 0;
  specs[1].seed_group = 0;
  batch_params params;
  params.threads = 1;
  const batch_report r = run_grid(
      specs, run_cells([](const run_config&, const run_artifacts& run) {
        return std::vector<measurement>{
            {"sim", "links", static_cast<double>(run.topo().num_links())},
            {"sim", "paths", static_cast<double>(run.topo().num_paths())}};
      }),
      params);
  EXPECT_EQ(r.runs()[0].measurements[0].value,
            r.runs()[1].measurements[0].value);
  EXPECT_EQ(r.runs()[0].measurements[1].value,
            r.runs()[1].measurements[1].value);
}

TEST(BatchRunnerTest, AggregatesAreBitIdenticalAcrossThreadCounts) {
  const std::vector<run_spec> specs = tiny_specs(8);
  batch_params serial;
  serial.threads = 1;
  batch_params parallel;
  parallel.threads = 4;

  const batch_report a = run_grid(specs, run_cells(count_eval), serial);
  const batch_report b = run_grid(specs, run_cells(count_eval), parallel);

  ASSERT_EQ(a.runs().size(), specs.size());
  ASSERT_EQ(b.runs().size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(a.runs()[i].index, i);
    EXPECT_EQ(b.runs()[i].index, i);
    ASSERT_EQ(a.runs()[i].measurements.size(),
              b.runs()[i].measurements.size());
    for (std::size_t m = 0; m < a.runs()[i].measurements.size(); ++m) {
      EXPECT_EQ(a.runs()[i].measurements[m].value,
                b.runs()[i].measurements[m].value);
    }
  }

  const auto sa = a.summarize();
  const auto sb = b.summarize();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].label, sb[i].label);
    EXPECT_EQ(sa[i].mean, sb[i].mean);    // bit-identical, not just close.
    EXPECT_EQ(sa[i].stddev, sb[i].stddev);
    EXPECT_EQ(sa[i].p90, sb[i].p90);
  }
}

TEST(BatchRunnerTest, DeriveSeedsOffRunsConfigVerbatim) {
  std::vector<run_spec> specs = tiny_specs(2);
  specs[0].config.sim.seed = 1234;
  specs[1].config.sim.seed = 1234;
  batch_params params;
  params.threads = 1;
  params.derive_seeds = false;
  const batch_report r = run_grid(specs, run_cells(count_eval), params);
  // Same config + same seed => identical simulated data.
  EXPECT_EQ(r.runs()[0].measurements[0].value,
            r.runs()[1].measurements[0].value);
}

TEST(BatchReportTest, SummarizeComputesStatsPerCell) {
  batch_report report;
  for (std::size_t i = 0; i < 4; ++i) {
    run_result r;
    r.index = i;
    r.label = "L";
    r.measurements = {{"s", "m", static_cast<double>(i + 1)}};  // 1..4
    report.add(r);
  }
  const auto cells = report.summarize();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].runs, 4u);
  EXPECT_DOUBLE_EQ(cells[0].mean, 2.5);
  EXPECT_DOUBLE_EQ(cells[0].min, 1.0);
  EXPECT_DOUBLE_EQ(cells[0].max, 4.0);
  EXPECT_NEAR(cells[0].stddev, 1.2909944487358056, 1e-12);
  EXPECT_DOUBLE_EQ(report.mean_of("L", "s", "m"), 2.5);
  EXPECT_DOUBLE_EQ(report.mean_of("L", "s", "absent"), 0.0);
}

TEST(BatchReportTest, AddKeepsRunsSortedByIndex) {
  batch_report report;
  for (const std::size_t index : {2, 0, 3, 1}) {
    run_result r;
    r.index = index;
    report.add(r);
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(report.runs()[i].index, i);
}

TEST(BatchReportTest, CsvExportWritesRunsAndSummary) {
  batch_report report;
  run_result r;
  r.index = 0;
  r.label = "L";
  r.measurements = {{"s", "m", 0.5}};
  report.add(r);

  const std::string runs_path = "batch_test_runs.csv";
  const std::string summary_path = "batch_test_summary.csv";
  report.write_runs_csv(runs_path);
  report.write_summary_csv(summary_path);

  std::ifstream runs_in(runs_path);
  std::stringstream runs_text;
  runs_text << runs_in.rdbuf();
  EXPECT_NE(runs_text.str().find("run,label,series,metric,value,seconds"),
            std::string::npos);
  EXPECT_NE(runs_text.str().find("0,L,s,m,"), std::string::npos);

  std::ifstream summary_in(summary_path);
  std::stringstream summary_text;
  summary_text << summary_in.rdbuf();
  EXPECT_NE(summary_text.str().find("label,series,metric,runs,mean"),
            std::string::npos);
  std::remove(runs_path.c_str());
  std::remove(summary_path.c_str());
}

TEST(InferenceMeasurementsTest, ExpandsBothMetrics) {
  inference_metrics m;
  m.detection_rate = 0.9;
  m.false_positive_rate = 0.1;
  const auto rows = inference_measurements("algo", m);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].series, "algo");
  EXPECT_EQ(rows[0].metric, "detection_rate");
  EXPECT_DOUBLE_EQ(rows[0].value, 0.9);
  EXPECT_EQ(rows[1].metric, "false_positive_rate");
  EXPECT_DOUBLE_EQ(rows[1].value, 0.1);
}

}  // namespace
}  // namespace ntom

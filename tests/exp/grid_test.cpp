// The sharded grid scheduler's contract: the topology cache reuses one
// generated instance per (spec, topo_seed); caching and thread count
// never change a single aggregate bit, and a run's cell rows equal the
// evaluator's unsharded rows.
#include "ntom/exp/grid.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "ntom/api/experiment.hpp"
#include "ntom/exp/evals.hpp"

namespace ntom {
namespace {

experiment small_grid(bool streamed = false,
                      std::vector<estimator_spec> estimators = {
                          "sparsity", "independence"}) {
  experiment e;
  e.with_topology("brite,n=10,hosts=30,paths=60")
      .with_scenario("random_congestion")
      .with_scenario("srlg")
      .with_scenario("gilbert")
      .with_estimators(std::move(estimators))
      .replicas(2)
      .intervals(30)
      .with_streaming({streamed});
  return e;
}

void expect_reports_identical(const batch_report& a, const batch_report& b) {
  const auto ca = a.summarize();
  const auto cb = b.summarize();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].label, cb[i].label);
    EXPECT_EQ(ca[i].series, cb[i].series);
    EXPECT_EQ(ca[i].metric, cb[i].metric);
    EXPECT_EQ(ca[i].runs, cb[i].runs);
    EXPECT_EQ(ca[i].mean, cb[i].mean) << ca[i].label << "/" << ca[i].series
                                      << "/" << ca[i].metric;  // bitwise.
    EXPECT_EQ(ca[i].stddev, cb[i].stddev);
    EXPECT_EQ(ca[i].min, cb[i].min);
    EXPECT_EQ(ca[i].max, cb[i].max);
  }
  // Per-run rows too: same order, same values, run by run.
  ASSERT_EQ(a.runs().size(), b.runs().size());
  for (std::size_t r = 0; r < a.runs().size(); ++r) {
    const run_result& ra = a.runs()[r];
    const run_result& rb = b.runs()[r];
    EXPECT_EQ(ra.index, rb.index);
    EXPECT_EQ(ra.label, rb.label);
    ASSERT_EQ(ra.measurements.size(), rb.measurements.size());
    for (std::size_t m = 0; m < ra.measurements.size(); ++m) {
      EXPECT_EQ(ra.measurements[m].series, rb.measurements[m].series);
      EXPECT_EQ(ra.measurements[m].metric, rb.measurements[m].metric);
      EXPECT_EQ(ra.measurements[m].value, rb.measurements[m].value);
    }
  }
}

TEST(TopologyCacheTest, SameKeySharesOneInstance) {
  topology_cache cache;
  const auto a = cache.get("brite,n=6,hosts=10,paths=20", 5);
  const auto b = cache.get("brite,n=6,hosts=10,paths=20", 5);
  EXPECT_EQ(a.get(), b.get());  // the same generated instance.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TopologyCacheTest, SeedAndSpecAreBothPartOfTheKey) {
  topology_cache cache;
  const auto a = cache.get("brite,n=6,hosts=10,paths=20", 5);
  const auto other_seed = cache.get("brite,n=6,hosts=10,paths=20", 6);
  const auto other_spec = cache.get("brite,n=7,hosts=10,paths=20", 5);
  EXPECT_NE(a.get(), other_seed.get());
  EXPECT_NE(a.get(), other_spec.get());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TopologyCacheTest, CachedInstanceEqualsRegeneration) {
  topology_cache cache;
  const auto cached = cache.get("brite,n=6,hosts=10,paths=20", 5);
  const topology fresh = make_topology("brite,n=6,hosts=10,paths=20", 5);
  EXPECT_EQ(cached->num_links(), fresh.num_links());
  EXPECT_EQ(cached->num_paths(), fresh.num_paths());
  EXPECT_EQ(cached->covered_links(), fresh.covered_links());
}

TEST(GridSchedulerTest, KnobsAndThreadsNeverChangeResults) {
  const experiment exp = small_grid();
  grid_stats reference_stats;
  const batch_report reference =
      exp.run({.threads = 1}, &reference_stats);
  ASSERT_FALSE(reference.summarize().empty());

  for (const bool cache : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      grid_stats stats;
      const batch_report report =
          exp.run({.threads = threads, .cache_topologies = cache}, &stats);
      expect_reports_identical(reference, report);
      EXPECT_EQ(stats.runs, 6u);    // 3 scenarios x 2 replicas.
      EXPECT_EQ(stats.cells, 12u);  // x 2 estimators.
      if (cache) {
        // One topology per replica; the scenario arms hit the cache.
        EXPECT_EQ(stats.topo_cache_misses, 2u);
        EXPECT_EQ(stats.topo_cache_hits, 4u);
      } else {
        EXPECT_EQ(stats.topo_cache_misses, 0u);
        EXPECT_EQ(stats.topo_cache_hits, 0u);
      }
    }
  }
}

TEST(GridSchedulerTest, StreamedRunsStayOneCellAndMatch) {
  const experiment materialized = small_grid(false);
  const experiment streamed = small_grid(true);
  grid_stats stats;
  const batch_report a = materialized.run({.threads = 2});
  const batch_report b = streamed.run({.threads = 2}, &stats);
  // Streamed fits share one replay pass, so no estimator sharding.
  EXPECT_EQ(stats.cells, stats.runs);
  expect_reports_identical(a, b);
}

TEST(GridSchedulerTest, ShardedRowsEqualTheUnshardedEvaluation) {
  // Boolean-only, link-only and dual-capability estimators, so every
  // run splits into 3 cells emitting both metric families.
  const std::vector<estimator_spec> estimators = {"sparsity", "independence",
                                                  "bayes-indep"};
  const estimator_eval_options options{.boolean_metrics = true,
                                       .link_error_metrics = true};
  const experiment exp = small_grid(false, estimators);
  const batch_params params{.threads = 4, .base_seed = 9};
  grid_stats stats;
  const batch_report report = exp.run(params, &stats);
  EXPECT_EQ(stats.cells, 3 * stats.runs);

  const std::vector<run_spec> specs = exp.specs();
  const estimator_cells cells(estimators, options);
  ASSERT_EQ(report.runs().size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    run_config config = derive_run_seeds(specs[i].config, params.base_seed, i,
                                         specs[i].seed_group);
    config.reconcile();
    const std::vector<measurement> expected =
        cells.eval_all(config, prepare_run(config));
    const std::vector<measurement>& rows = report.runs()[i].measurements;
    ASSERT_EQ(rows.size(), expected.size()) << "run " << i;
    bool boolean = false;
    bool link_error = false;
    for (std::size_t m = 0; m < rows.size(); ++m) {
      EXPECT_EQ(rows[m].series, expected[m].series);
      EXPECT_EQ(rows[m].metric, expected[m].metric);
      EXPECT_EQ(rows[m].value, expected[m].value)  // bitwise.
          << "run " << i << " " << rows[m].series << "/" << rows[m].metric;
      boolean = boolean || rows[m].metric == "detection_rate";
      link_error = link_error || rows[m].metric == "mean_abs_error";
    }
    EXPECT_TRUE(boolean && link_error) << "run " << i;
  }
}

TEST(GridSchedulerTest, EvalExceptionsPropagate) {
  struct throwing_eval final : cell_evaluator {
    [[nodiscard]] std::size_t shards(const run_config&) const override {
      return 2;
    }
    [[nodiscard]] std::vector<measurement> eval_cell(
        const run_config&, const run_artifacts&, void* /*run_state*/,
        std::size_t shard) const override {
      if (shard == 1) throw std::runtime_error("cell boom");
      return {};
    }
  };
  const experiment exp = small_grid();
  const throwing_eval eval;
  EXPECT_THROW((void)run_grid(exp.specs(), eval, {.threads = 4}),
               std::runtime_error);
  EXPECT_THROW((void)run_grid(exp.specs(), eval, {.threads = 1}),
               std::runtime_error);
}

TEST(GridSchedulerTest, EmptySpecsYieldEmptyReport) {
  const estimator_cells cells({"sparsity"});
  grid_stats stats;
  const batch_report report = run_grid({}, cells, {}, &stats);
  EXPECT_TRUE(report.runs().empty());
  EXPECT_EQ(stats.cells, 0u);
  EXPECT_EQ(stats.runs, 0u);
}

}  // namespace
}  // namespace ntom

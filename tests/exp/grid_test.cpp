// The sharded grid scheduler's contract: the topology cache reuses one
// generated instance per (spec, topo_seed); caching and thread count
// never change a single aggregate bit, and a run's cell rows equal the
// evaluator's unsharded rows.
#include "ntom/exp/grid.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "ntom/api/experiment.hpp"
#include "ntom/exp/evals.hpp"
#include "ntom/part/partition.hpp"

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
  // run emits both metric families. Bayes-Indep shares Independence's
  // fit, so a run splits into 2 cells.
  const std::vector<estimator_spec> estimators = {"sparsity", "independence",
                                                  "bayes-indep"};
  const estimator_eval_options options{.boolean_metrics = true,
                                       .link_error_metrics = true};
  const experiment exp = small_grid(false, estimators);
  const batch_params params{.threads = 4, .base_seed = 9};
  grid_stats stats;
  const batch_report report = exp.run(params, &stats);
  EXPECT_EQ(stats.cells, 2 * stats.runs);

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

// Shared fits: one estimator_cells over a combined list must emit, run
// by run, exactly the rows of one single-estimator estimator_cells per
// list entry, concatenated in list order — the single-estimator cells
// fit every estimator on its own, so they are the oracle for sharing.
std::size_t distinct_fit_keys(const std::vector<estimator_spec>& list) {
  std::set<std::string> keys;
  for (const estimator_spec& s : list) keys.insert(fit_key(s));
  return keys.size();
}

void expect_shared_fit_rows(const experiment& exp,
                            const std::vector<estimator_spec>& list,
                            const estimator_eval_options& options,
                            std::size_t expected_cells_per_run) {
  const std::vector<run_spec> specs = exp.specs();
  const batch_params params{.threads = 4, .base_seed = 17};
  grid_stats stats;
  const batch_report combined =
      run_grid(specs, estimator_cells(list, options), params, &stats);
  EXPECT_EQ(stats.runs, specs.size());
  EXPECT_EQ(stats.cells, expected_cells_per_run * stats.runs);

  std::vector<std::vector<measurement>> oracle(specs.size());
  for (const estimator_spec& s : list) {
    const batch_report single =
        run_grid(specs, estimator_cells({s}, options), params);
    for (std::size_t r = 0; r < specs.size(); ++r) {
      const std::vector<measurement>& rows = single.runs()[r].measurements;
      oracle[r].insert(oracle[r].end(), rows.begin(), rows.end());
    }
  }
  ASSERT_EQ(combined.runs().size(), specs.size());
  for (std::size_t r = 0; r < specs.size(); ++r) {
    const std::vector<measurement>& rows = combined.runs()[r].measurements;
    ASSERT_EQ(rows.size(), oracle[r].size()) << "run " << r;
    ASSERT_FALSE(rows.empty()) << "run " << r;
    for (std::size_t m = 0; m < rows.size(); ++m) {
      EXPECT_EQ(rows[m].series, oracle[r][m].series) << "run " << r;
      EXPECT_EQ(rows[m].metric, oracle[r][m].metric) << "run " << r;
      EXPECT_EQ(rows[m].value, oracle[r][m].value)  // bitwise.
          << "run " << r << " " << rows[m].series << "/" << rows[m].metric;
    }
  }
}

// Both built-in pairs, listed non-adjacently (the README's sweep order),
// and again with each pair's link-only member first: a key's fit must
// come from its Boolean member wherever that is listed.
const std::vector<estimator_spec> both_pairs = {
    "sparsity", "bayes-indep", "bayes-corr", "independence", "corr-complete"};
const std::vector<estimator_spec> both_pairs_link_first = {
    "independence", "corr-complete", "sparsity", "bayes-indep", "bayes-corr"};

const estimator_eval_options all_metrics{.boolean_metrics = true,
                                         .link_error_metrics = true};

TEST(GridSchedulerTest, SharedFitKeysPairTheBayesianEstimators) {
  EXPECT_EQ(fit_key("bayes-indep"), fit_key("independence"));
  EXPECT_EQ(fit_key("clink,label=CLINK"), fit_key("independence"));
  EXPECT_EQ(fit_key("bayes-corr"), fit_key("corr-complete"));
  EXPECT_EQ(fit_key("bayes-corr,min_all_good=5"),
            fit_key("corr-complete,min_all_good=5"));
  EXPECT_NE(fit_key("independence,pairs=100"), fit_key("bayes-indep"));
  EXPECT_NE(fit_key("independence,pairs=6000"), fit_key("independence"));
  EXPECT_NE(fit_key("bayes-indep"), fit_key("bayes-corr"));
  EXPECT_NE(fit_key("sparsity"), fit_key("independence"));
  EXPECT_NE(fit_key("corr-heuristic"), fit_key("corr-complete"));
  EXPECT_EQ(distinct_fit_keys(both_pairs), 3u);
  EXPECT_THROW((void)fit_key("no-such-estimator"), spec_error);
}

TEST(GridSchedulerTest, SharedFitRowsEqualPerEstimatorFitsMaterialized) {
  expect_shared_fit_rows(small_grid(false, both_pairs), both_pairs,
                         all_metrics, 3);
}

TEST(GridSchedulerTest, SharedFitRowsEqualPerEstimatorFitsLinkFirst) {
  expect_shared_fit_rows(small_grid(false, both_pairs_link_first),
                         both_pairs_link_first, all_metrics, 3);
}

TEST(GridSchedulerTest, SharedFitRowsEqualPerEstimatorFitsStreamed) {
  expect_shared_fit_rows(small_grid(true, both_pairs_link_first),
                         both_pairs_link_first, all_metrics, 1);
}

TEST(GridSchedulerTest, SharedFitRowsEqualPerEstimatorFitsPartitioned) {
  experiment exp = small_grid(false, both_pairs);
  const partition_options part{.mode = partition_mode::bicomp,
                               .max_cell_links = 24};
  exp.with_partitioning(part);
  // The oracle only means something if the runs really partition.
  const run_config config = exp.specs().front().config;
  EXPECT_FALSE(make_partition(make_topology(config.topo, config.topo_seed),
                              part)
                   .trivial());
  expect_shared_fit_rows(exp, both_pairs, all_metrics, 3);
}

TEST(GridSchedulerTest, SharedFitRowsEqualPerEstimatorFitsMasked) {
  // Probe budgets force streamed runs and reject the store-bound pair,
  // so the masked case covers the Independence pair, non-adjacent.
  const std::vector<estimator_spec> list = {"independence", "sparsity",
                                            "bayes-indep"};
  experiment exp = small_grid(false, list);
  exp.with_policy("uniform,frac=0.5,seed=3");
  ASSERT_FALSE(exp.specs().front().config.plan.policy.empty());
  expect_shared_fit_rows(exp, list, all_metrics, 1);
}

TEST(GridSchedulerTest, SharedFitNeedsEqualOptions) {
  // pairs=100 changes the Independence system, so it must not share
  // Bayes-Indep's default fit: three keys, three cells per run.
  const std::vector<estimator_spec> list = {"independence,pairs=100",
                                            "bayes-indep", "sparsity"};
  EXPECT_EQ(distinct_fit_keys(list), 3u);
  expect_shared_fit_rows(small_grid(false, list), list, all_metrics, 3);
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

TEST(GridSchedulerTest, SharedCapturePathIsRejectedBeforeAnyCell) {
  struct counting_eval final : cell_evaluator {
    mutable std::atomic<int> cells{0};
    [[nodiscard]] std::vector<measurement> eval_cell(
        const run_config&, const run_artifacts&, void* /*run_state*/,
        std::size_t /*shard*/) const override {
      cells.fetch_add(1);
      return {};
    }
  };
  std::vector<run_spec> specs = small_grid(true).specs();
  std::size_t other = 1;
  while (other < specs.size() && specs[other].label == specs[0].label) {
    ++other;
  }
  ASSERT_LT(other, specs.size());
  const std::string path = ::testing::TempDir() + "/shared_capture.trc";
  specs[0].config.capture.path = path;
  specs[other].config.capture.path = path;

  for (const std::size_t threads : {1u, 4u}) {
    const counting_eval eval;
    try {
      (void)run_grid(specs, eval, {.threads = threads});
      ADD_FAILURE() << "a shared capture path must throw";
    } catch (const spec_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(specs[0].label), std::string::npos) << what;
      EXPECT_NE(what.find(specs[other].label), std::string::npos) << what;
    }
    EXPECT_EQ(eval.cells.load(), 0);
  }
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

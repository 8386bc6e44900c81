// Equivalence suite for the estimator adapters: each registered
// estimator must be bit-identical to the direct algorithm call it
// wraps, across a seeded run — the registry adds naming, never noise.
// The counting fits are checked against their solvers fed with counts
// from path_observations over the store, independent of the adapters'
// pathset_counter.
#include "ntom/api/estimator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ntom/exp/runner.hpp"
#include "ntom/infer/bayes_map.hpp"
#include "ntom/infer/observation.hpp"
#include "ntom/infer/sparsity.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/tomo/correlation_heuristic.hpp"
#include "ntom/tomo/independence.hpp"

namespace ntom {
namespace {

const run_artifacts& seeded_run() {
  static const run_artifacts run = [] {
    run_config c;
    c.topo = "brite,n=10,hosts=30,paths=60";
    c.topo_seed = 5;
    c.scenario = "no_independence";
    c.scenario_opts.seed = 7;
    c.sim.intervals = 60;
    c.sim.packets_per_path = 60;
    c.sim.seed = 9;
    return prepare_run(c);
  }();
  return run;
}

void expect_links_equal(const link_estimates& a, const link_estimates& b) {
  ASSERT_EQ(a.congestion.size(), b.congestion.size());
  for (std::size_t e = 0; e < a.congestion.size(); ++e) {
    EXPECT_EQ(a.congestion[e], b.congestion[e]) << "link " << e;  // bitwise.
    EXPECT_EQ(a.estimated.test(e), b.estimated.test(e)) << "link " << e;
  }
}

std::unique_ptr<estimator> fitted(const char* name) {
  std::unique_ptr<estimator> est = make_estimator(name);
  const run_artifacts& run = seeded_run();
  est->fit(run.topo(), run.data);
  return est;
}

void expect_infer_matches(
    const estimator& est,
    const std::function<bitvec(const interval_observation&)>& direct) {
  const run_artifacts& run = seeded_run();
  for (std::size_t t = 0; t < run.data.intervals; ++t) {
    const bitvec congested = run.data.congested_paths_at(t);
    EXPECT_EQ(est.infer(congested),
              direct(make_observation(run.topo(), congested)))
        << "interval " << t;
  }
}

/// All-good counts of `sets` over the seeded store.
std::vector<std::size_t> store_counts(const std::vector<bitvec>& sets) {
  const path_observations obs(seeded_run().data);
  std::vector<std::size_t> counts;
  for (const bitvec& set : sets) counts.push_back(obs.count_all_good(set));
  return counts;
}

independence_result independence_on_store() {
  const run_artifacts& run = seeded_run();
  const std::vector<bitvec> sets = independence_path_sets(run.topo());
  return solve_independence(
      run.topo(), sets, store_counts(sets),
      std::vector<std::size_t>(sets.size(), run.data.intervals),
      run.data.always_good_paths);
}

TEST(EstimatorEquivalence, SparsityMatchesDirectCall) {
  const auto est = fitted("sparsity");
  const run_artifacts& run = seeded_run();
  expect_infer_matches(*est, [&](const interval_observation& obs) {
    return infer_sparsity(run.topo(), obs);
  });
}

TEST(EstimatorEquivalence, BayesIndepMatchesDirectCall) {
  const auto est = fitted("bayes-indep");
  const run_artifacts& run = seeded_run();
  const independence_result step1 = independence_on_store();
  expect_infer_matches(*est, [&](const interval_observation& obs) {
    return map_independent(run.topo(), obs, step1.links.congestion);
  });
  expect_links_equal(est->links(), step1.links);
}

TEST(EstimatorEquivalence, BayesCorrMatchesDirectCall) {
  const auto est = fitted("bayes-corr");
  const run_artifacts& run = seeded_run();
  const correlation_complete_result step1 =
      compute_correlation_complete(run.topo(), run.data);
  const link_estimates marginals = step1.estimates.to_link_estimates();
  map_correlated_tables tables(run.topo(), step1.estimates, marginals);
  expect_infer_matches(*est, [&](const interval_observation& obs) {
    bitvec solution;
    map_correlated(obs, tables, solution);
    return solution;
  });
  expect_links_equal(est->links(), marginals);
}

/// Four threads call infer() on one fitted Bayes-Corr estimator over
/// the same intervals, fully observed and every other path masked. The
/// threads share the estimator's MAP tables and fill them from empty,
/// so their calls take turns; each thread's solutions must equal those
/// of serial calls on another estimator fitted to the same data.
TEST(MapConcurrencyTest, ConcurrentInferMatchesSerial) {
  const run_artifacts& run = seeded_run();
  bitvec every_other(run.topo().num_paths());
  for (path_id p = 0; p < run.topo().num_paths(); p += 2) every_other.set(p);
  auto infer_all = [&](const estimator& est) {
    std::vector<bitvec> out;
    for (const bitvec& observed : {bitvec(), every_other}) {
      for (std::size_t t = 0; t < run.data.intervals; ++t) {
        bitvec congested = run.data.congested_paths_at(t);
        if (!observed.empty()) congested &= observed;
        out.push_back(est.infer(congested, observed));
      }
    }
    return out;
  };
  const std::vector<bitvec> serial = infer_all(*fitted("bayes-corr"));
  const auto shared = fitted("bayes-corr");
  std::vector<std::vector<bitvec>> parallel(4);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < parallel.size(); ++k) {
    threads.emplace_back([&, k] { parallel[k] = infer_all(*shared); });
  }
  for (auto& th : threads) th.join();
  for (std::size_t k = 0; k < parallel.size(); ++k) {
    EXPECT_EQ(parallel[k], serial) << "thread " << k;
  }
}

TEST(EstimatorEquivalence, IndependenceMatchesDirectCall) {
  expect_links_equal(fitted("independence")->links(),
                     independence_on_store().links);
}

TEST(EstimatorEquivalence, CorrHeuristicMatchesDirectCall) {
  const run_artifacts& run = seeded_run();
  const std::vector<bitvec> sets = correlation_heuristic_path_sets(run.topo());
  const correlation_heuristic_result direct = solve_correlation_heuristic(
      run.topo(), sets, store_counts(sets),
      std::vector<std::size_t>(sets.size(), run.data.intervals),
      run.data.always_good_paths);
  expect_links_equal(fitted("corr-heuristic")->links(),
                     direct.estimates.to_link_estimates());
}

TEST(EstimatorEquivalence, CorrCompleteMatchesDirectCall) {
  const auto est = fitted("corr-complete");
  const run_artifacts& run = seeded_run();
  expect_links_equal(est->links(),
                     compute_correlation_complete(run.topo(), run.data)
                         .estimates.to_link_estimates());
}

TEST(EstimatorEquivalence, OptionsReachTheWrappedAlgorithm) {
  // min_all_good is forwarded: a stricter floor must reproduce the
  // direct call with the same params, not the defaults.
  std::unique_ptr<estimator> est = make_estimator("corr-complete,min_all_good=8");
  const run_artifacts& run = seeded_run();
  est->fit(run.topo(), run.data);
  correlation_complete_params params;
  params.min_all_good_count = 8;
  expect_links_equal(est->links(),
                     compute_correlation_complete(run.topo(), run.data, params)
                         .estimates.to_link_estimates());
}

TEST(EstimatorRegistry, CapabilitiesAreDeclared) {
  const auto caps_of = [](const char* name) {
    return make_estimator(name)->caps();
  };
  EXPECT_TRUE(caps_of("sparsity").boolean_inference);
  EXPECT_FALSE(caps_of("sparsity").link_estimation);
  EXPECT_TRUE(caps_of("bayes-indep").boolean_inference);
  EXPECT_TRUE(caps_of("bayes-indep").link_estimation);
  EXPECT_TRUE(caps_of("bayes-corr").boolean_inference);
  EXPECT_TRUE(caps_of("bayes-corr").link_estimation);
  for (const char* link_only :
       {"independence", "corr-heuristic", "corr-complete"}) {
    EXPECT_FALSE(caps_of(link_only).boolean_inference) << link_only;
    EXPECT_TRUE(caps_of(link_only).link_estimation) << link_only;
  }
}

TEST(EstimatorRegistry, UnsupportedCapabilityThrows) {
  const auto sparsity = fitted("sparsity");
  EXPECT_THROW((void)sparsity->links(), std::logic_error);
  const auto independence = fitted("independence");
  EXPECT_THROW((void)independence->infer(bitvec(3)), std::logic_error);
}

TEST(EstimatorRegistry, NamesAliasesAndErrors) {
  const auto names = estimator_registry().names();
  EXPECT_GE(names.size(), 6u);
  for (const char* name : {"sparsity", "bayes-indep", "bayes-corr",
                           "independence", "corr-heuristic", "corr-complete"}) {
    EXPECT_TRUE(estimator_registry().contains(name)) << name;
  }
  EXPECT_TRUE(estimator_registry().contains("clink"));  // alias.
  EXPECT_EQ(estimator_label("bayes-corr"), "Bayes-Corr");
  EXPECT_EQ(estimator_label("sparsity,label=Greedy"), "Greedy");
  EXPECT_THROW((void)make_estimator("oracle"), spec_error);
  EXPECT_THROW((void)make_estimator("sparsity,depth=2"), spec_error);
}

}  // namespace
}  // namespace ntom

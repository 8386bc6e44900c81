#include "ntom/infer/bayes_map.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <random>

#include "ntom/exp/runner.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/topogen/toy.hpp"
#include "map_reference.hpp"

// This binary's global operator new counts the allocations a thread
// makes while its `counting_allocations` flag is set, so a test can
// show that a call allocates nothing.
namespace {
thread_local bool counting_allocations = false;
thread_local std::size_t allocations = 0;
}  // namespace

// The nothrow forms are replaced too: a sanitizer runtime supplies its
// own for any form left out, and memory from its nothrow new (which
// std::stable_sort's buffer uses) would reach the free() below. GCC
// takes the malloc/free pair for a new/delete mismatch once the
// replacements are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (counting_allocations) ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ntom {
namespace {

using namespace topogen;
using testing_oracle::explains_observation;

bitvec paths(const topology& t, std::initializer_list<path_id> ids) {
  bitvec b(t.num_paths());
  for (const auto p : ids) b.set(p);
  return b;
}

TEST(MapIndependentTest, PicksHighProbabilityExplanation) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  // e2 and e3 are the usual suspects.
  std::vector<double> p(t.num_links(), 0.01);
  p[toy_e2] = 0.6;
  p[toy_e3] = 0.6;
  const bitvec sol = map_independent(t, obs, p);
  EXPECT_TRUE(sol.test(toy_e2));
  EXPECT_TRUE(sol.test(toy_e3));
  EXPECT_TRUE(explains_observation(t, obs, sol));
}

TEST(MapIndependentTest, MatchesExactEnumerationOnToy) {
  const topology t = make_toy(toy_case::case1);
  std::vector<double> p(t.num_links(), 0.0);
  p[toy_e1] = 0.30;
  p[toy_e2] = 0.05;
  p[toy_e3] = 0.25;
  p[toy_e4] = 0.10;
  for (std::uint32_t mask = 1; mask < 8; ++mask) {
    bitvec congested(t.num_paths());
    for (int b = 0; b < 3; ++b) {
      if (mask & (1u << b)) congested.set(static_cast<path_id>(b));
    }
    const auto obs = make_observation(t, congested);
    if (!explains_observation(t, obs, obs.candidate_links)) {
      continue;  // inconsistent observation: no valid explanation.
    }
    const bitvec greedy = map_independent(t, obs, p);
    const bitvec exact = testing_oracle::map_exact_independent(t, obs, p);
    EXPECT_TRUE(explains_observation(t, obs, greedy));
    // Greedy should match the exact MAP on this tiny instance.
    EXPECT_EQ(greedy, exact) << "observation mask " << mask;
  }
}

TEST(MapIndependentTest, PaperExampleWrongUnderCorrelation) {
  // §3.1: e2,e3 perfectly correlated with joint 0.3; e1 mildly
  // congested. Under Independence the estimates make {e1,e3} beat the
  // true {e2,e3}: p(e1) high from mis-attribution. We emulate the
  // mis-estimated marginals CLINK would compute and check the MAP step
  // prefers the wrong solution.
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  std::vector<double> p(t.num_links(), 0.0);
  // Independence-step estimates: correlation mass leaks onto e1.
  p[toy_e1] = 0.35;
  p[toy_e2] = 0.18;
  p[toy_e3] = 0.30;
  p[toy_e4] = 0.02;
  const bitvec sol = map_independent(t, obs, p);
  EXPECT_TRUE(sol.test(toy_e1));
  EXPECT_FALSE(sol.test(toy_e2));  // the miss the paper describes.
}

TEST(MapCorrelatedTest, JointEstimatesFixTheCorrelatedCase) {
  // Same observation, but the correlation-aware scorer knows
  // P(e2,e3 both congested) = 0.3 >> P(e1) P(e3): it should pick the
  // pair {e2,e3} and exonerate e1.
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));

  bitvec potcong(t.num_links());
  for (link_id e = 0; e < 4; ++e) potcong.set(e);
  subset_catalog catalog = subset_catalog::build(t, potcong);
  probability_estimates est(t, std::move(catalog), potcong);
  auto set_g = [&](std::initializer_list<link_id> links, double g) {
    bitvec b(t.num_links());
    for (const auto e : links) b.set(e);
    est.set_good_probability(est.catalog().find(b), g, true);
  };
  set_g({toy_e1}, 0.95);              // e1 rarely congested.
  set_g({toy_e2}, 0.70);
  set_g({toy_e3}, 0.70);
  set_g({toy_e2, toy_e3}, 0.70);      // perfect correlation.
  set_g({toy_e4}, 0.98);

  const link_estimates marginals = est.to_link_estimates();
  map_correlated_tables tables(t, est, marginals);
  bitvec sol;
  map_correlated(obs, tables, sol);
  EXPECT_TRUE(sol.test(toy_e2));
  EXPECT_TRUE(sol.test(toy_e3));
  EXPECT_TRUE(explains_observation(t, obs, sol));
}

TEST(MapCorrelatedTest, FallsBackGracefullyWithoutJoints) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1}));
  bitvec potcong(t.num_links());
  for (link_id e = 0; e < 4; ++e) potcong.set(e);
  subset_catalog catalog = subset_catalog::build(t, potcong);
  const probability_estimates est(t, std::move(catalog), potcong);  // nothing set.
  const link_estimates marginals = est.to_link_estimates();
  map_correlated_tables tables(t, est, marginals);
  bitvec sol;
  map_correlated(obs, tables, sol);
  EXPECT_TRUE(explains_observation(t, obs, sol));
}

TEST(MapExactTest, RefusesOversizedInstances) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  std::vector<double> p(t.num_links(), 0.2);
  const bitvec sol =
      testing_oracle::map_exact_independent(t, obs, p, /*max_candidates=*/2);
  EXPECT_TRUE(sol.empty());
}

TEST(MapIndependentTest, EmptyObservationEmptySolution) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, bitvec(t.num_paths()));
  const std::vector<double> p(t.num_links(), 0.3);
  EXPECT_TRUE(map_independent(t, obs, p).empty());
}

/// A seeded random Brite network under one Fig. 3 scenario, with its
/// Corr-complete fit.
struct fitted_run {
  run_artifacts run;
  correlation_complete_result fit;
  link_estimates marginals;

  fitted_run(std::uint64_t topo_seed, const char* scenario,
             std::uint64_t scenario_seed)
      : run(prepare(topo_seed, scenario, scenario_seed)),
        fit(compute_correlation_complete(run.topo(), run.data)),
        marginals(fit.estimates.to_link_estimates()) {}

  static run_artifacts prepare(std::uint64_t topo_seed, const char* scenario,
                               std::uint64_t scenario_seed) {
    run_config config;
    config.topo = "brite";
    config.topo_seed = topo_seed;
    config.scenario = scenario;
    config.scenario_opts.seed = scenario_seed;
    config.sim.intervals = 300;
    return prepare_run(config);
  }

  /// Interval i's observation, under `observed` unless it is empty.
  interval_observation observation(std::size_t i,
                                   const bitvec& observed) const {
    bitvec congested = run.data.congested_paths_at(i);
    if (!observed.empty()) congested &= observed;
    return make_observation(run.topo(), congested, observed);
  }
};

/// Every third path probed: the masked case of the oracle tests.
bitvec every_third_path_unprobed(const topology& t) {
  bitvec masked(t.num_paths());
  for (path_id p = 0; p < t.num_paths(); ++p) {
    if (p % 3 != 0) masked.set(p);
  }
  return masked;
}

/// map_correlated against the uncached greedy it replaced, on a seeded
/// random Brite network under each Fig. 3 scenario, fully observed and
/// with every third path unprobed: every interval's solution must be
/// identical. One tables object serves the whole fit, both masks
/// included, so later intervals read states that earlier ones stored.
/// The fallback count shows that marginal scoring, the other branch of
/// a move's delta, is exercised too.
class MapCorrelatedOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapCorrelatedOracleTest, MatchesUncachedGreedy) {
  for (const char* scenario :
       {"random_congestion", "no_independence", "no_stationarity"}) {
    const fitted_run f(GetParam(), scenario, GetParam() + 100);
    const topology& t = f.run.topo();
    map_correlated_tables tables(t, f.fit.estimates, f.marginals);
    std::size_t fallbacks = 0;
    std::size_t congested_intervals = 0;
    bitvec got;
    for (const bitvec& observed : {bitvec(), every_third_path_unprobed(t)}) {
      for (std::size_t i = 0; i < f.run.data.intervals; ++i) {
        const auto obs = f.observation(i, observed);
        if (!obs.congested_paths.empty()) ++congested_intervals;
        map_correlated(obs, tables, got);
        const bitvec want = testing_oracle::map_correlated(
            t, obs, f.fit.estimates, f.marginals, &fallbacks);
        ASSERT_EQ(got, want) << scenario << " interval " << i
                             << (observed.empty() ? "" : " masked");
      }
    }
    EXPECT_GT(congested_intervals, 0u) << scenario;
    EXPECT_GT(fallbacks, 0u) << scenario;
    EXPECT_LT(tables.state_evaluations(), tables.state_lookups()) << scenario;
  }
}

/// Two fits on one network, their tables used in alternation on one
/// thread: each interval's solution must still be its own fit's.
TEST(MapCorrelatedTest, AlternatingFitsKeepTheirOwnTables) {
  const fitted_run a(10, "random_congestion", 110);
  const fitted_run b(10, "no_independence", 110);
  const topology& t = a.run.topo();
  map_correlated_tables tables_a(t, a.fit.estimates, a.marginals);
  map_correlated_tables tables_b(b.run.topo(), b.fit.estimates, b.marginals);
  bitvec got;
  for (std::size_t i = 0; i < a.run.data.intervals; ++i) {
    for (const fitted_run* f : {&a, &b}) {
      map_correlated_tables& tables = f == &a ? tables_a : tables_b;
      const auto obs = f->observation(i, bitvec());
      map_correlated(obs, tables, got);
      ASSERT_EQ(got, testing_oracle::map_correlated(
                         f->run.topo(), obs, f->fit.estimates, f->marginals))
          << (f == &a ? "random_congestion" : "no_independence")
          << " interval " << i;
    }
  }
}

/// Once the tables hold a fit's states, map_correlated allocates
/// nothing: a second pass over the same intervals, both masks, makes
/// no heap allocation and evaluates no state.
TEST(MapCorrelatedTest, SteadyStateCallsAllocateNothing) {
  const fitted_run f(3, "no_independence", 8);
  const topology& t = f.run.topo();
  map_correlated_tables tables(t, f.fit.estimates, f.marginals);
  std::vector<interval_observation> intervals;
  for (const bitvec& observed : {bitvec(), every_third_path_unprobed(t)}) {
    for (std::size_t i = 0; i < f.run.data.intervals; ++i) {
      intervals.push_back(f.observation(i, observed));
    }
  }
  bitvec solution;
  for (const interval_observation& obs : intervals) {
    map_correlated(obs, tables, solution);
  }
  const std::size_t evaluations = tables.state_evaluations();
  std::size_t congested = 0;
  allocations = 0;
  for (const interval_observation& obs : intervals) {
    counting_allocations = true;
    map_correlated(obs, tables, solution);
    counting_allocations = false;
    congested += solution.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(tables.state_evaluations(), evaluations);
  EXPECT_GT(congested, 0u);
}

/// A full state table clears itself, and the clear changes no solution.
/// One AS of 70 links (keys of two words per mask), link e alone on
/// path e, and subsets of up to two links, half of them estimated:
/// each random observation of about 30 congested paths adds a few
/// hundred new states, so the table fills within a few hundred calls.
TEST(MapCorrelatedTest, FullStateTableClearsWithoutChangingSolutions) {
  constexpr std::size_t n = 70;
  topology t(n);
  for (std::size_t e = 0; e < n; ++e) {
    t.add_link({.as_number = 0,
                .router_links = {static_cast<router_link_id>(e)},
                .edge = false});
  }
  for (std::size_t e = 0; e < n; ++e) t.add_path({static_cast<link_id>(e)});
  t.finalize();
  probability_estimates est(
      t, subset_catalog::build(t, t.covered_links(), {.max_subset_size = 2}),
      t.covered_links());
  for (std::size_t i = 0; i < est.catalog().size(); ++i) {
    double g = 1.0;
    est.catalog().subset(i).for_each(
        [&](std::size_t e) { g *= 0.95 - 0.01 * static_cast<double>(e % 7); });
    est.set_good_probability(i, g, i % 2 == 0);
  }
  const link_estimates marginals = est.to_link_estimates();
  map_correlated_tables tables(t, est, marginals);

  std::mt19937_64 gen(5);
  std::bernoulli_distribution congested_path(0.45);
  bitvec got;
  std::size_t calls = 0;
  while (tables.state_evaluations() <= 2 * map_correlated_tables::max_states) {
    ASSERT_LT(++calls, 5000u) << "the state table never filled";
    bitvec congested(t.num_paths());
    for (path_id p = 0; p < t.num_paths(); ++p) {
      if (congested_path(gen)) congested.set(p);
    }
    const auto obs = make_observation(t, congested);
    map_correlated(obs, tables, got);
    ASSERT_EQ(got, testing_oracle::map_correlated(t, obs, est, marginals))
        << "call " << calls;
  }
}

/// The MAP work counters on the network and scenario the digest pins
/// use (Brite seed 3, random congestion seed 8, T=300, fully
/// observed): a change to the search that moves the number of state
/// lookups or evaluations shows here.
TEST(MapCorrelatedTest, WorkCountersPinned) {
  const fitted_run f(3, "random_congestion", 8);
  map_correlated_tables tables(f.run.topo(), f.fit.estimates, f.marginals);
  bitvec got;
  for (std::size_t i = 0; i < f.run.data.intervals; ++i) {
    map_correlated(f.observation(i, bitvec()), tables, got);
  }
  EXPECT_EQ(tables.state_lookups(), 50918u);
  EXPECT_EQ(tables.state_evaluations(), 674u);
  // A second pass over the same intervals only reads the table.
  const std::size_t evaluations = tables.state_evaluations();
  for (std::size_t i = 0; i < f.run.data.intervals; ++i) {
    map_correlated(f.observation(i, bitvec()), tables, got);
  }
  EXPECT_EQ(tables.state_evaluations(), evaluations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapCorrelatedOracleTest,
                         ::testing::Values<std::uint64_t>(3, 10, 12));

}  // namespace
}  // namespace ntom

#include "ntom/tomo/pathset_select.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "ntom/corr/correlation.hpp"
#include "ntom/linalg/solve.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/sparse.hpp"
#include "ntom/topogen/toy.hpp"
#include "pathset_select_reference.hpp"

namespace ntom {
namespace {

using namespace topogen;

bitvec full_potcong(const topology& t) {
  bitvec b(t.num_links());
  for (link_id e = 0; e < t.num_links(); ++e) b.set(e);
  return b;
}

std::size_t selection_rank(const pathset_selection& sel, std::size_t n1) {
  sparse_matrix m(n1);
  for (const auto& row : sel.rows) m.append_row(row);
  return solve_least_squares(m, std::vector<double>(m.rows(), 0.0)).rank;
}

TEST(PathsetSelectTest, ToyCase1FullRank) {
  // §5.3: with Identifiability++ holding, the seed equations alone give
  // a full-column-rank system — all 5 unknowns identifiable.
  const topology t = make_toy(toy_case::case1);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);

  EXPECT_EQ(catalog.size(), 5u);
  EXPECT_EQ(sel.null_space.cols(), 0u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_TRUE(sel.identifiable.test(i)) << "subset " << i;
  }
  EXPECT_EQ(selection_rank(sel, catalog.size()), 5u);
}

TEST(PathsetSelectTest, ToyCase1SeedPathSetsMatchPaper) {
  // The §5.3 table: seeds are {p1,p2}, {p1}, {p2,p3}, {p3}, {p1,p2,p3}.
  const topology t = make_toy(toy_case::case1);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);

  ASSERT_GE(sel.seed_equations, 5u);
  std::vector<std::vector<std::size_t>> expected = {
      {toy_p1, toy_p2},          // E = {e1}
      {toy_p1},                  // E = {e2}
      {toy_p2, toy_p3},          // E = {e3}
      {toy_p3},                  // E = {e4}
      {toy_p1, toy_p2, toy_p3},  // E = {e2,e3}
  };
  for (const auto& want : expected) {
    bool found = false;
    for (const auto& got : sel.path_sets) {
      if (got.to_indices() == want) found = true;
    }
    EXPECT_TRUE(found) << "missing seed path set";
  }
}

TEST(PathsetSelectTest, ToyCase2DetectsUnidentifiable) {
  // Fig. 1 Case 2: {e1,e4} and {e2,e3} are traversed by the same paths;
  // their probabilities cannot both be determined.
  const topology t = make_toy(toy_case::case2);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);

  EXPECT_EQ(catalog.size(), 6u);
  EXPECT_GT(sel.null_space.cols(), 0u);

  bitvec e14(t.num_links()), e23(t.num_links());
  e14.set(toy_e1);
  e14.set(toy_e4);
  e23.set(toy_e2);
  e23.set(toy_e3);
  EXPECT_FALSE(sel.identifiable.test(catalog.find(e14)));
  EXPECT_FALSE(sel.identifiable.test(catalog.find(e23)));
}

// Condition 1 (Identifiability, §2): no two links are traversed by
// exactly the same set of paths. Algorithm 1's identifiable set is where
// the library decides it: links that violate it get no identifiable
// probability, and links no path traverses are not unknowns at all.

/// Algorithm 1 over the covered links of `t`; `identifiable(e)` reads
/// whether link e's own probability came out identifiable.
struct covered_selection {
  explicit covered_selection(const topology& t)
      : catalog(subset_catalog::build(t, t.covered_links())),
        sel(select_path_sets(t, catalog, t.covered_links())) {}

  [[nodiscard]] bool identifiable(link_id e) const {
    const std::size_t i = catalog.singleton_of(e);
    return i != subset_catalog::npos && sel.identifiable.test(i);
  }

  subset_catalog catalog;
  pathset_selection sel;
};

TEST(IdentifiabilityTest, ToyTopologySatisfiesCondition1) {
  // In Fig. 1 all four links have distinct path coverages.
  const topology t = make_toy(toy_case::case1);
  const covered_selection s(t);
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_TRUE(s.identifiable(e)) << "link " << e;
  }
}

TEST(IdentifiabilityTest, DetectsIndistinguishableLinks) {
  // Two independent links in series on a single path share the same
  // coverage: only their sum is measured.
  topology t(2);
  t.add_link({.as_number = 0, .router_links = {0}, .edge = false});
  t.add_link({.as_number = 1, .router_links = {1}, .edge = false});
  t.add_path({0, 1});
  t.finalize();
  const covered_selection s(t);
  EXPECT_FALSE(s.identifiable(0));
  EXPECT_FALSE(s.identifiable(1));
}

TEST(IdentifiabilityTest, UncoveredLinksIgnored) {
  // Links 1 and 2 are on no path.
  topology t(3);
  t.add_link({.as_number = 0, .router_links = {0}, .edge = false});
  t.add_link({.as_number = 0, .router_links = {1}, .edge = false});
  t.add_link({.as_number = 0, .router_links = {2}, .edge = false});
  t.add_path({0});
  t.finalize();
  // The two uncovered links have identical (empty) coverage but do not
  // make the covered link unidentifiable: they are not unknowns.
  const covered_selection s(t);
  EXPECT_TRUE(s.identifiable(0));
  EXPECT_EQ(s.catalog.size(), 1u);
}

TEST(PathsetSelectTest, UsablePredicateFiltersPathSets) {
  const topology t = make_toy(toy_case::case1);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  // Refuse every path set containing p3.
  const auto sel = select_path_sets(
      t, catalog, potcong, {},
      [&](const bitvec& pset) { return !pset.test(toy_p3); });
  for (const auto& pset : sel.path_sets) {
    EXPECT_FALSE(pset.test(toy_p3));
  }
  // e4 is only observable through p3: must be unidentifiable now.
  bitvec e4(t.num_links());
  e4.set(toy_e4);
  EXPECT_FALSE(sel.identifiable.test(catalog.find(e4)));
}

TEST(PathsetSelectTest, HammingOrderingDoesNotChangeRank) {
  // The ablation property: ordering is a speed heuristic only.
  topogen::brite_params p;
  p.seed = 21;
  const topology t = topogen::generate_brite(p);
  const bitvec potcong = t.covered_links();
  const subset_catalog catalog = subset_catalog::build(t, potcong);

  pathset_selection_params sorted;
  sorted.sort_by_hamming_weight = true;
  pathset_selection_params unsorted;
  unsorted.sort_by_hamming_weight = false;

  const auto a = select_path_sets(t, catalog, potcong, sorted);
  const auto b = select_path_sets(t, catalog, potcong, unsorted);
  const auto rank_a = selection_rank(a, catalog.size());
  const auto rank_b = selection_rank(b, catalog.size());
  EXPECT_EQ(rank_a, rank_b);
}

TEST(PathsetSelectTest, RowsAreConsistentWithPathSets) {
  const topology t = make_toy(toy_case::case1);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const equation_builder builder(t, catalog, potcong);
  equation_row_scratch scratch;
  const auto sel = select_path_sets(t, catalog, potcong);
  ASSERT_EQ(sel.path_sets.size(), sel.rows.size());
  for (std::size_t i = 0; i < sel.path_sets.size(); ++i) {
    ASSERT_TRUE(builder.row(sel.path_sets[i], scratch));
    EXPECT_EQ(scratch.row, sel.rows[i]);
  }
}

TEST(PathsetSelectTest, NoDuplicatePathSets) {
  topogen::brite_params p;
  p.seed = 23;
  const topology t = topogen::generate_brite(p);
  const bitvec potcong = t.covered_links();
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);
  for (std::size_t i = 0; i < sel.path_sets.size(); ++i) {
    for (std::size_t j = i + 1; j < sel.path_sets.size(); ++j) {
      EXPECT_FALSE(sel.path_sets[i] == sel.path_sets[j]);
    }
  }
}

TEST(PathsetSelectTest, MinimalityEquationsAtMostRankPlusSeeds) {
  // Step 3 only ever adds rank-increasing equations, so
  // |Pˆ| <= seeds + rank gain; in particular added <= catalog size.
  topogen::brite_params p;
  p.seed = 25;
  const topology t = topogen::generate_brite(p);
  const bitvec potcong = t.covered_links();
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);
  EXPECT_EQ(sel.path_sets.size(), sel.seed_equations + sel.added_equations);
  EXPECT_LE(sel.added_equations, catalog.size());
}

// ---- The resumed step-3 walk against the restarting oracle.

topology small_brite(std::uint64_t seed) {
  brite_params p;
  p.num_ases = 10;
  p.routers_per_as = 4;
  p.num_destination_hosts = 40;
  p.num_paths = 90;
  p.seed = seed;
  return generate_brite(p);
}

topology small_sparse(std::uint64_t seed) {
  sparse_params p;
  p.num_mid = 8;
  p.num_stubs = 30;
  p.num_paths = 90;
  p.seed = seed;
  return generate_sparse(p);
}

/// Every output field, null space included, compares equal (==).
void expect_same_selection(const pathset_selection& got,
                           const pathset_selection& want) {
  EXPECT_EQ(got.path_sets, want.path_sets);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.seed_equations, want.seed_equations);
  EXPECT_EQ(got.added_equations, want.added_equations);
  EXPECT_EQ(got.null_space, want.null_space);
  EXPECT_EQ(got.identifiable, want.identifiable);
}

class PathsetOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathsetOracleTest, ResumedWalkEqualsRestartingOracle) {
  const std::uint64_t seed = GetParam();
  // Refuses about a third of the path sets, deterministically in their
  // content, like an empirical-count threshold would.
  const pathset_predicate some_usable = [](const bitvec& pset) {
    return pset.hash() % 3 != 0;
  };
  for (const bool brite : {true, false}) {
    const topology t = brite ? small_brite(seed) : small_sparse(seed);
    const bitvec potcong = t.covered_links();
    const subset_catalog catalog = subset_catalog::build(t, potcong);
    for (const bool sorted : {true, false}) {
      for (const bool filtered : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << (brite ? "brite" : "sparse") << " seed " << seed
                     << (sorted ? " sorted" : " unsorted")
                     << (filtered ? " filtered" : ""));
        pathset_selection_params params;
        params.sort_by_hamming_weight = sorted;
        const pathset_predicate usable =
            filtered ? some_usable : pathset_predicate{};
        const auto got = select_path_sets(t, catalog, potcong, params, usable);
        const auto want = testing_oracle::select_path_sets(t, catalog, potcong,
                                                           params, usable);
        expect_same_selection(got, want);
        EXPECT_LE(got.candidates_examined, want.candidates_examined);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathsetOracleTest,
                         ::testing::Values<std::uint64_t>(3, 11, 29, 47));

TEST(PathsetOracleTest, BenchmarkNetworkWithCountThreshold) {
  // The fig3_brite network (brite,n=36,hosts=180,paths=450) under random
  // congestion at T=300, with the predicate compute_correlation_complete
  // builds. The work counters are pinned: they are deterministic, and a
  // change that walks differently shows here before it shows in a time.
  brite_params p;
  p.num_ases = 36;
  p.num_destination_hosts = 180;
  p.num_paths = 450;
  p.seed = 42;
  const topology t = generate_brite(p);
  scenario_params sp;
  sp.seed = 8;
  const congestion_model model = make_scenario(t, "random_congestion", sp);
  sim_params sim;
  sim.intervals = 300;
  const experiment_data data = run_experiment(t, model, sim);
  const path_observations obs(data);
  const bitvec potcong =
      potentially_congested_links(t, obs.always_good_paths());
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const std::size_t min_count =
      correlation_complete_params{}.min_all_good_count;
  const pathset_predicate usable = [&](const bitvec& pset) {
    return obs.count_all_good(pset) >= min_count;
  };

  const auto got = select_path_sets(t, catalog, potcong, {}, usable);
  const auto want =
      testing_oracle::select_path_sets(t, catalog, potcong, {}, usable);
  expect_same_selection(got, want);
  EXPECT_EQ(got.seed_equations, 131u);
  EXPECT_EQ(got.added_equations, 12u);
  EXPECT_EQ(got.candidates_examined, 145545u);
  EXPECT_EQ(got.rank_tests, 190u);
}

TEST(PathsetConcurrencyTest, ThreadsWithDifferentListLengthsMatchSerial) {
  // Grid cells run Algorithm 1 on worker threads at once. Each thread
  // caps its candidate lists at another length, so the threads fill
  // distinct entries of the shared mask cache concurrently (this process
  // has not filled any yet); the results must equal serial runs made
  // afterwards.
  const topology t = small_brite(7);
  const bitvec potcong = t.covered_links();
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const std::vector<std::size_t> caps = {3, 5, 7, 9, 11, 13};
  auto run = [&](std::size_t cap) {
    pathset_selection_params params;
    params.max_subset_paths = cap;
    params.max_candidates_per_subset = 256;
    return select_path_sets(t, catalog, potcong, params);
  };

  std::vector<pathset_selection> parallel(caps.size());
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    threads.emplace_back([&, k] { parallel[k] = run(caps[k]); });
  }
  for (auto& th : threads) th.join();

  for (std::size_t k = 0; k < caps.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "cap " << caps[k]);
    const pathset_selection serial = run(caps[k]);
    expect_same_selection(parallel[k], serial);
    EXPECT_EQ(parallel[k].candidates_examined, serial.candidates_examined);
  }
}

TEST(PathsetSelectTest, CandidatesExaminedBoundedByOneWalkPerSubset) {
  const topology t = small_brite(5);
  const bitvec potcong = t.covered_links();
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  pathset_selection_params params;
  params.max_candidates_per_subset = 200;

  // n1 seeds plus at most one full walk per subset.
  std::size_t bound = catalog.size();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    bitvec paths = t.paths_of_links(catalog.subset(i));
    paths.subtract(t.paths_of_links(subset_complement(
        t, catalog.subset(i), catalog.subset_as(i), potcong)));
    const std::size_t k = std::min(paths.count(), params.max_subset_paths);
    bound += std::min<std::size_t>((std::size_t{1} << k) - 1,
                                   params.max_candidates_per_subset);
  }
  const auto sel = select_path_sets(t, catalog, potcong, params);
  EXPECT_GE(sel.candidates_examined, catalog.size());
  EXPECT_LE(sel.candidates_examined, bound);

  const auto oracle =
      testing_oracle::select_path_sets(t, catalog, potcong, params);
  ASSERT_GT(sel.added_equations, 1u);
  EXPECT_LT(sel.candidates_examined, oracle.candidates_examined);
}

TEST(PathsetSelectTest, RejectsMaxSubsetPathsAboveLimit) {
  const topology t = make_toy(toy_case::case1);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  pathset_selection_params params;
  params.max_subset_paths = max_subset_paths_limit;
  EXPECT_NO_THROW((void)select_path_sets(t, catalog, potcong, params));
  params.max_subset_paths = max_subset_paths_limit + 1;
  EXPECT_THROW((void)select_path_sets(t, catalog, potcong, params),
               std::invalid_argument);
  params.max_subset_paths = 64;
  EXPECT_THROW((void)select_path_sets(t, catalog, potcong, params),
               std::invalid_argument);
}

}  // namespace
}  // namespace ntom

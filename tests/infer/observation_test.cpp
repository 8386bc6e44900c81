#include "ntom/infer/observation.hpp"

#include <gtest/gtest.h>

#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/sparse.hpp"
#include "ntom/topogen/toy.hpp"
#include "ntom/util/rng.hpp"
#include "map_reference.hpp"

namespace ntom {
namespace {

using namespace topogen;
using testing_oracle::explains_observation;

bitvec paths(const topology& t, std::initializer_list<path_id> ids) {
  bitvec b(t.num_paths());
  for (const auto p : ids) b.set(p);
  return b;
}

TEST(ObservationTest, AllPathsCongested) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  EXPECT_TRUE(obs.good_paths.empty());
  EXPECT_TRUE(obs.good_links.empty());
  EXPECT_EQ(obs.candidate_links.count(), 4u);
}

TEST(ObservationTest, GoodPathsClearTheirLinks) {
  const topology t = make_toy(toy_case::case1);
  // p1 congested, p2 and p3 good -> e1, e3, e4 known good; only e2
  // can explain p1.
  const auto obs = make_observation(t, paths(t, {toy_p1}));
  EXPECT_EQ(obs.good_links.to_indices(),
            (std::vector<std::size_t>{toy_e1, toy_e3, toy_e4}));
  EXPECT_EQ(obs.candidate_links.to_indices(),
            (std::vector<std::size_t>{toy_e2}));
}

TEST(ObservationTest, NothingCongested) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, bitvec(t.num_paths()));
  EXPECT_TRUE(obs.candidate_links.empty());
  EXPECT_EQ(obs.good_links.count(), 4u);
}

TEST(ObservationTest, ExplainsObservationAcceptsValidSolution) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  bitvec sol(t.num_links());
  sol.set(toy_e1);
  sol.set(toy_e3);
  EXPECT_TRUE(explains_observation(t, obs, sol));
}

TEST(ObservationTest, ExplainsObservationRejectsUncovered) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  bitvec sol(t.num_links());
  sol.set(toy_e1);  // covers p1, p2 but not p3.
  EXPECT_FALSE(explains_observation(t, obs, sol));
}

TEST(ObservationTest, ExplainsObservationRejectsGoodLinks) {
  const topology t = make_toy(toy_case::case1);
  // p2 good: e1, e3 known good.
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p3}));
  bitvec sol(t.num_links());
  sol.set(toy_e1);  // on a good path -> not a candidate.
  sol.set(toy_e4);
  EXPECT_FALSE(explains_observation(t, obs, sol));

  bitvec valid(t.num_links());
  valid.set(toy_e2);
  valid.set(toy_e4);
  EXPECT_TRUE(explains_observation(t, obs, valid));
}

/// make_observation by link-set unions: the links of every good path
/// are good, and the candidates are the links of the congested paths
/// minus those. The oracle for make_observation, which examines only
/// the links of congested paths.
interval_observation reference_observation(const topology& t,
                                           const bitvec& congested,
                                           const bitvec& observed) {
  interval_observation obs;
  obs.congested_paths = congested;
  if (observed.empty()) {
    obs.good_paths = bitvec(t.num_paths());
    for (path_id p = 0; p < t.num_paths(); ++p) {
      if (!congested.test(p)) obs.good_paths.set(p);
    }
  } else {
    obs.good_paths = observed;
    obs.good_paths.subtract(congested);
  }
  obs.good_links = t.links_of_paths(obs.good_paths);
  obs.candidate_links = t.links_of_paths(congested);
  obs.candidate_links.subtract(obs.good_links);
  return obs;
}

void expect_matches_reference(const topology& t, const bitvec& congested,
                              const bitvec& observed, const std::string& what) {
  const interval_observation got =
      observed.empty() ? make_observation(t, congested)
                       : make_observation(t, congested, observed);
  const interval_observation want =
      reference_observation(t, congested, observed);
  auto expect_same = [&](const bitvec& a, const bitvec& b, const char* field) {
    EXPECT_TRUE(a == b) << what << ": " << field << " " << a.to_string()
                        << " vs " << b.to_string();
  };
  expect_same(got.congested_paths, want.congested_paths, "congested_paths");
  expect_same(got.good_paths, want.good_paths, "good_paths");
  expect_same(got.good_links, want.good_links, "good_links");
  expect_same(got.candidate_links, want.candidate_links, "candidate_links");
}

bitvec random_paths(const topology& t, rng& r, double density) {
  bitvec b(t.num_paths());
  for (path_id p = 0; p < t.num_paths(); ++p) {
    if (r.bernoulli(density)) b.set(p);
  }
  return b;
}

/// Every congested/observed combination the oracle test walks on `t`:
/// unmasked (an empty mask, and the all-zero mask, which also means
/// fully observed) and masked (every other path, random masks, and a
/// mask equal to the congested set, which leaves no good path).
void expect_all_cases_match(const topology& t, std::uint64_t seed,
                            const std::string& name) {
  rng r(seed);
  bitvec all(t.num_paths());
  all.flip();
  bitvec every_other(t.num_paths());
  for (path_id p = 0; p < t.num_paths(); p += 2) every_other.set(p);

  std::vector<std::pair<std::string, bitvec>> congested_sets = {
      {"none", bitvec(t.num_paths())}, {"all", all}};
  for (const double density : {0.02, 0.1, 0.3, 0.7}) {
    for (int k = 0; k < 3; ++k) {
      congested_sets.emplace_back("random " + std::to_string(density),
                                  random_paths(t, r, density));
    }
  }
  for (const auto& [label, congested] : congested_sets) {
    const std::string what = name + " congested=" + label;
    expect_matches_reference(t, congested, bitvec(), what + " unmasked");
    expect_matches_reference(t, congested, bitvec(t.num_paths()),
                             what + " all-zero mask");
    std::vector<std::pair<std::string, bitvec>> masks = {
        {"every other", every_other},
        {"random", random_paths(t, r, 0.5)},
        {"all", all}};
    for (const auto& [mask_label, mask] : masks) {
      // Probe-budget chunks carry congested rows cut to the mask.
      const bitvec cut = congested & mask;
      expect_matches_reference(t, cut, mask, what + " mask=" + mask_label);
    }
    // The mask is exactly the congested set: no observed path is good.
    if (!congested.empty()) {
      expect_matches_reference(t, congested, congested,
                               what + " mask=congested");
    }
  }
}

TEST(ObservationOracleTest, MatchesLinkUnionOnBrite) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    topogen::brite_params params;
    params.seed = seed;
    expect_all_cases_match(topogen::generate_brite(params), seed,
                           "brite seed " + std::to_string(seed));
  }
}

TEST(ObservationOracleTest, MatchesLinkUnionOnSparse) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    topogen::sparse_params params;
    params.seed = seed;
    expect_all_cases_match(topogen::generate_sparse(params), seed + 100,
                           "sparse seed " + std::to_string(seed));
  }
}

TEST(ObservationOracleTest, MatchesLinkUnionOnToy) {
  const topology t = make_toy(toy_case::case1);
  for (std::uint32_t c = 0; c < 8; ++c) {
    for (std::uint32_t m = 0; m < 8; ++m) {
      bitvec congested(t.num_paths());
      bitvec observed(t.num_paths());
      for (path_id p = 0; p < 3; ++p) {
        if (c & (1u << p)) congested.set(p);
        if (m & (1u << p)) observed.set(p);
      }
      expect_matches_reference(
          t, congested, observed,
          "toy congested=" + std::to_string(c) + " mask=" + std::to_string(m));
    }
  }
}

}  // namespace
}  // namespace ntom

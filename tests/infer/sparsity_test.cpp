#include "ntom/infer/sparsity.hpp"

#include <gtest/gtest.h>

#include "ntom/topogen/toy.hpp"
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

TEST(SparsityTest, PaperExampleAllPathsCongested) {
  // §3.1: with {p1,p2,p3} congested, Sparsity infers {e1,e3} (each
  // participates in two congested paths).
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  const bitvec sol = infer_sparsity(t, obs);
  EXPECT_EQ(sol.to_indices(), (std::vector<std::size_t>{toy_e1, toy_e3}));
}

TEST(SparsityTest, PaperFailureModeEdgeCongestion) {
  // §3.1: if e2 and e3 are congested (edge congestion), the observation
  // is still {p1,p2,p3} and Sparsity picks {e1,e3} — it misses e2 and
  // falsely blames e1. This test pins the failure mode.
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1, toy_p2, toy_p3}));
  const bitvec sol = infer_sparsity(t, obs);
  bitvec actual(t.num_links());
  actual.set(toy_e2);
  actual.set(toy_e3);
  EXPECT_FALSE(sol == actual);
  EXPECT_FALSE(sol.test(toy_e2));  // missed congested link.
  EXPECT_TRUE(sol.test(toy_e1));   // false positive.
}

TEST(SparsityTest, SingleCongestedPath) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, paths(t, {toy_p1}));
  const bitvec sol = infer_sparsity(t, obs);
  // Only e2 is a candidate (e1 exonerated by good p2).
  EXPECT_EQ(sol.to_indices(), (std::vector<std::size_t>{toy_e2}));
}

TEST(SparsityTest, NoCongestionNoBlame) {
  const topology t = make_toy(toy_case::case1);
  const auto obs = make_observation(t, bitvec(t.num_paths()));
  EXPECT_TRUE(infer_sparsity(t, obs).empty());
}

TEST(SparsityTest, SolutionExplainsEveryConsistentObservation) {
  const topology t = make_toy(toy_case::case1);
  for (std::uint32_t mask = 1; mask < 8; ++mask) {
    bitvec congested(t.num_paths());
    for (int b = 0; b < 3; ++b) {
      if (mask & (1u << b)) congested.set(static_cast<path_id>(b));
    }
    const auto obs = make_observation(t, congested);
    // Inconsistent observations (good paths exonerate every link of a
    // congested path; possible under probing noise) have no valid
    // explanation — the candidate set itself cannot cover.
    const bool consistent =
        explains_observation(t, obs, obs.candidate_links);
    const bitvec sol = infer_sparsity(t, obs);
    if (consistent) {
      EXPECT_TRUE(explains_observation(t, obs, sol))
          << "mask " << mask << " sol " << sol.to_string();
    } else {
      EXPECT_TRUE(sol.is_subset_of(obs.candidate_links));
    }
  }
}

TEST(SparsityTest, SolutionIsMinimalOnToy) {
  // Greedy cover on the toy never uses more links than congested paths.
  const topology t = make_toy(toy_case::case1);
  for (std::uint32_t mask = 1; mask < 8; ++mask) {
    bitvec congested(t.num_paths());
    for (int b = 0; b < 3; ++b) {
      if (mask & (1u << b)) congested.set(static_cast<path_id>(b));
    }
    const auto obs = make_observation(t, congested);
    EXPECT_LE(infer_sparsity(t, obs).count(), congested.count());
  }
}

}  // namespace
}  // namespace ntom

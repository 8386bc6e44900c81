// Defined results of the three Boolean inference algorithms at their
// numeric and observational extremes: link probabilities of exactly 0
// and 1, intervals with every (observed) path congested or none, and an
// observation no link set can explain.
#include <gtest/gtest.h>

#include "ntom/infer/bayes_map.hpp"
#include "ntom/infer/sparsity.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/toy.hpp"
#include "map_reference.hpp"

namespace ntom {
namespace {

using namespace topogen;
using testing_oracle::explains_observation;

/// One probability assignment: P(X_e = 1) per link, all 0 or 1.
struct extreme_probabilities {
  const char* name;
  std::vector<double> congestion;
};

std::vector<extreme_probabilities> extremes(const topology& t) {
  std::vector<double> mixed(t.num_links());
  for (std::size_t e = 0; e < t.num_links(); ++e) {
    mixed[e] = static_cast<double>(e % 2);
  }
  return {{"all 0", std::vector<double>(t.num_links(), 0.0)},
          {"all 1", std::vector<double>(t.num_links(), 1.0)},
          {"odd links 1", mixed}};
}

/// Subset estimates matching `p` under independence: g(E) = P(every
/// link of E good) is 1 when every p_e is 0 and 0 otherwise, and every
/// subset is identifiable.
probability_estimates estimates_for(const topology& t,
                                    const std::vector<double>& p) {
  probability_estimates est(t, subset_catalog::build(t, t.covered_links()),
                            t.covered_links());
  for (std::size_t i = 0; i < est.catalog().size(); ++i) {
    double g = 1.0;
    est.catalog().subset(i).for_each([&](std::size_t e) { g *= 1.0 - p[e]; });
    est.set_good_probability(i, g, true);
  }
  return est;
}

/// The three algorithms' solutions for one observation.
std::vector<std::pair<const char*, bitvec>> solve_all(
    const topology& t, const interval_observation& obs,
    const std::vector<double>& p, const probability_estimates& est,
    const link_estimates& marginals) {
  map_correlated_tables tables(t, est, marginals);
  bitvec bayes_corr;
  map_correlated(obs, tables, bayes_corr);
  return {{"sparsity", infer_sparsity(t, obs)},
          {"bayes-indep", map_independent(t, obs, p)},
          {"bayes-corr", bayes_corr}};
}

/// Every path congested, none congested, and the same two cases under
/// an every-other-path mask: each algorithm must return an explanation
/// the observation accepts, or nothing when nothing is congested.
void expect_defined_results(const topology& t, const std::string& name) {
  bitvec all(t.num_paths());
  all.flip();
  bitvec every_other(t.num_paths());
  for (path_id p = 0; p < t.num_paths(); p += 2) every_other.set(p);
  const bitvec none(t.num_paths());
  const std::vector<std::pair<const char*, interval_observation>> cases = {
      {"none congested", make_observation(t, none)},
      {"all congested", make_observation(t, all)},
      {"masked, none congested", make_observation(t, none, every_other)},
      {"masked, all observed congested",
       make_observation(t, every_other, every_other)}};

  for (const auto& probs : extremes(t)) {
    const probability_estimates est = estimates_for(t, probs.congestion);
    const link_estimates marginals = est.to_link_estimates();
    for (const auto& [label, obs] : cases) {
      for (const auto& [algo, sol] :
           solve_all(t, obs, probs.congestion, est, marginals)) {
        const std::string what =
            name + " p=" + probs.name + " " + label + " " + algo;
        if (obs.congested_paths.empty()) {
          EXPECT_TRUE(sol.empty()) << what << ": " << sol.to_string();
        } else {
          EXPECT_TRUE(explains_observation(t, obs, sol))
              << what << ": " << sol.to_string();
        }
      }
    }
  }
}

TEST(InferenceEdgeCaseTest, ExtremeProbabilitiesOnToy) {
  expect_defined_results(make_toy(toy_case::case1), "toy");
}

TEST(InferenceEdgeCaseTest, ExtremeProbabilitiesOnBrite) {
  brite_params params;
  params.seed = 5;
  expect_defined_results(generate_brite(params), "brite");
}

TEST(InferenceEdgeCaseTest, UnexplainableObservationYieldsCandidateSubset) {
  // p2 = {e1, e3} congested while p1 and p3 are good: Separability
  // clears both of its links, so no link set explains the observation
  // (probing noise can produce this). Each algorithm then returns what
  // it could pick among the candidates: here nothing.
  const topology t = make_toy(toy_case::case1);
  bitvec congested(t.num_paths());
  congested.set(toy_p2);
  const interval_observation obs = make_observation(t, congested);
  ASSERT_TRUE(obs.candidate_links.empty());
  for (const auto& probs : extremes(t)) {
    const probability_estimates est = estimates_for(t, probs.congestion);
    for (const auto& [algo, sol] : solve_all(t, obs, probs.congestion, est,
                                             est.to_link_estimates())) {
      EXPECT_TRUE(sol.empty()) << probs.name << " " << algo;
      EXPECT_FALSE(explains_observation(t, obs, sol)) << algo;
    }
  }
}

}  // namespace
}  // namespace ntom

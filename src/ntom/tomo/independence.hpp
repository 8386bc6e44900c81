// Independence: the Probability Computation step of CLINK [11]
// (the paper's "Independence" baseline in Fig. 4 and step 1 of
// Bayesian-Independence in Fig. 3).
//
// Assumes all links are independent (Assumption 4), so the unknowns are
// per-link log-good-probabilities and Eq. 1 degenerates to
//   log P(∩ Y_p = 0) = Σ_{e ∈ Links(P)} log P(X_e = 0).
// Equations come from single paths and pairs of intersecting paths
// (Fig. 2(a)); the system is solved by least squares. When links are in
// fact correlated, the factorization is simply wrong — the source of
// this baseline's error in the No-Independence scenarios.
#pragma once

#include "ntom/tomo/estimates.hpp"

namespace ntom {

struct independence_params {
  /// Cap on pair-of-paths equations (all single paths are always used).
  std::size_t max_pair_equations = 6000;
};

struct independence_result {
  link_estimates links;
  std::size_t equations_used = 0;
  std::size_t system_rank = 0;
};

/// The equation family (single paths, then capped intersecting pairs in
/// deterministic order) — a pure function of the topology, which is why
/// this fit streams: the `independence` and `bayes-indep` estimators
/// register these sets with a pathset_counter, then finish with
/// solve_independence once the counters are exact.
[[nodiscard]] std::vector<bitvec> independence_path_sets(
    const topology& t, const independence_params& params = {});

/// Assembles and solves the Independence system from measured all-good
/// counts: `counts[i]` intervals with every path of `path_sets[i]` good,
/// out of `observed_intervals[i]` in which the set was fully observed
/// (pathset_counter::observed_intervals(); every entry is the stream
/// length on unmasked streams), through log_system (equations.hpp).
/// Equations whose set was never fully observed have count 0 and are
/// skipped like any other unusable equation.
[[nodiscard]] independence_result solve_independence(
    const topology& t, const std::vector<bitvec>& path_sets,
    const std::vector<std::size_t>& counts,
    const std::vector<std::size_t>& observed_intervals,
    const bitvec& always_good_paths);

}  // namespace ntom

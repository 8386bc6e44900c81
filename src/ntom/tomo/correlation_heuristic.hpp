// Correlation-heuristic: the earlier approach of Ghita et al. [9]
// ("Network Tomography on Correlated Links", IMC 2010), the paper's
// second Fig. 4 baseline.
//
// Like Correlation-complete it assumes Correlation Sets, but instead of
// selecting a minimal equation set it floods the solver with every
// available small path-set equation (singles, pairs, triples of
// intersecting paths). Each equation's right-hand side is a noisy
// empirical log-probability, so the redundant system "introduces more
// noise when solving" (§5.4) — visibly worse on Sparse topologies where
// only a few noisy, barely-overlapping equations exist per unknown.
#pragma once

#include "ntom/tomo/estimates.hpp"

namespace ntom {

struct correlation_heuristic_params {
  subset_limits limits;  ///< same catalog caps as Correlation-complete.
  std::size_t max_pair_equations = 4000;
  std::size_t max_triple_equations = 2000;
};

struct correlation_heuristic_result {
  probability_estimates estimates;
  std::size_t equations_used = 0;
  std::size_t system_rank = 0;
};

/// The flooded equation family — topology-determined, so this fit
/// streams: the `corr-heuristic` estimator counts the family with a
/// pathset_counter, then finishes with solve_correlation_heuristic. The
/// singles and capped intersecting pairs are independence_path_sets
/// with `max_pair_equations`, in the same order; capped intersecting
/// triples follow in deterministic order.
[[nodiscard]] std::vector<bitvec> correlation_heuristic_path_sets(
    const topology& t, const correlation_heuristic_params& params = {});

/// Assembles and solves the flooded system from measured all-good
/// counts, with per-equation denominators: the intervals in which the
/// equation's path set was fully observed (the stream length everywhere
/// on unmasked streams), through log_system (equations.hpp).
[[nodiscard]] correlation_heuristic_result solve_correlation_heuristic(
    const topology& t, const std::vector<bitvec>& path_sets,
    const std::vector<std::size_t>& counts,
    const std::vector<std::size_t>& observed_intervals,
    const bitvec& always_good_paths,
    const correlation_heuristic_params& params = {});

}  // namespace ntom

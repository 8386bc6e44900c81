// Correlation-complete: the paper's Probability Computation algorithm
// (§5) — Step 1 of Bayesian-Correlation, promoted to the primary
// monitoring tool (§4).
//
// Assumes Separability, E2E Monitoring, and Correlation Sets only.
// Pipeline: determine the potentially congested links from the
// observations, enumerate the correlation-subset unknowns Ê, run
// Algorithm 1 to pick a minimal set of path-set equations, then solve
// the log-domain least-squares system (log_system, equations.hpp) and
// exponentiate. Subsets whose
// coordinate is undetermined (Identifiability++ violations, Case 2 of
// Fig. 1) are flagged not-identifiable rather than given garbage values.
#pragma once

#include "ntom/sim/monitor.hpp"
#include "ntom/tomo/estimates.hpp"
#include "ntom/tomo/pathset_select.hpp"

namespace ntom {

struct correlation_complete_params {
  subset_limits limits;                 ///< catalog caps (§4 resource knob).
  pathset_selection_params selection;   ///< Algorithm 1 knobs.

  /// Minimum all-good count for a path set to be usable as an
  /// equation. log of a tiny empirical frequency has huge variance; a
  /// floor of a few observations keeps single-interval flukes from
  /// dominating the least-squares solution.
  std::size_t min_all_good_count = 3;
};

struct correlation_complete_result {
  probability_estimates estimates;
  std::size_t equations_used = 0;   ///< |Pˆ|.
  std::size_t system_rank = 0;
  std::size_t seed_equations = 0;   ///< from Algorithm 1 step 1.
  std::size_t added_equations = 0;  ///< from Algorithm 1 step 3.
};

/// Runs the full algorithm on a finished experiment.
[[nodiscard]] correlation_complete_result compute_correlation_complete(
    const topology& t, const experiment_data& data,
    const correlation_complete_params& params = {});

}  // namespace ntom

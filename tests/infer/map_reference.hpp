// Test oracles for per-interval inference: whether a solution explains
// an observation, exact MAP under link independence by enumerating
// every subset of the candidate links, and the correlation-aware greedy
// MAP recomputing every move's score delta on every pass. The
// enumeration is exponential, so only for tiny instances;
// map_independent (infer/bayes_map.hpp) must match it on the toy
// topology. map_correlated (infer/bayes_map.hpp) must return exactly
// what the greedy oracle returns.
#pragma once

#include <cstddef>
#include <vector>

#include "ntom/graph/topology.hpp"
#include "ntom/infer/observation.hpp"
#include "ntom/tomo/estimates.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom::testing_oracle {

/// True if `solution` explains the observation: it covers every
/// congested path and uses only candidate links.
[[nodiscard]] bool explains_observation(const topology& t,
                                        const interval_observation& obs,
                                        const bitvec& solution);

/// The highest-scoring explaining set, with each probability clamped
/// as map_independent clamps it. Returns the empty set when there are
/// more than `max_candidates` candidate links.
[[nodiscard]] bitvec map_exact_independent(
    const topology& t, const interval_observation& obs,
    const std::vector<double>& congestion_prob,
    std::size_t max_candidates = 20);

/// The correlation-aware greedy MAP with every move's score delta
/// recomputed on every pass (phase 1's fixpoint scans and each phase 2
/// step) instead of cached per version of the move's AS. Adds to
/// `*fallbacks`, when given, each delta that the joint estimates could
/// not express and marginal scoring gave instead.
[[nodiscard]] bitvec map_correlated(const topology& t,
                                    const interval_observation& obs,
                                    const probability_estimates& estimates,
                                    const link_estimates& marginals,
                                    std::size_t* fallbacks = nullptr);

}  // namespace ntom::testing_oracle

// Test oracles for per-interval inference: whether a solution explains
// an observation, and exact MAP under link independence by enumerating
// every subset of the candidate links. The enumeration is exponential,
// so only for tiny instances; map_independent (infer/bayes_map.hpp)
// must match it on the toy topology.
#pragma once

#include <cstddef>
#include <vector>

#include "ntom/graph/topology.hpp"
#include "ntom/infer/observation.hpp"
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

}  // namespace ntom::testing_oracle

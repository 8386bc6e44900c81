// Probabilistic Inference — step 2 of the Bayesian algorithms (§2, §3.1).
//
// Given per-link (or per-subset) probabilities from Probability
// Computation, pick the explanation of the interval's observation that
// occurred with the highest probability (MLE over consistent solutions).
// The exact problem is NP-complete [11]; like CLINK we use a greedy
// approximation:
//
//  * independence scoring: a solution S has
//      log P = Σ_{e∈S} log p_e + Σ_{e∈candidates\S} log (1 - p_e);
//    links with p_e > 1/2 always help, the rest are chosen by a
//    weighted-set-cover greedy with weight log((1-p_e)/p_e).
//
//  * correlation scoring: within each correlation set the state
//    probability comes from the joint estimates (inclusion-exclusion);
//    the greedy evaluates the true score delta of adding a link.
//    Indistinguishable solutions (Identifiability++ violations) tie and
//    are broken arbitrarily — the paper's "picks at random".
//
// Cost per interval: the independence greedy computes each candidate's
// log((1-p)/p) once per call and scores a candidate by one fused
// AND+popcount against the uncovered paths per round. The correlation
// greedy computes each move's path coverage once per call and counts
// its cover by one AND+popcount per round. A move's score delta depends
// only on the move and on the solution's part in the move's AS, so each
// AS carries a version that every applied move bumps, and each move
// keeps its last delta with the version it was computed at: the delta
// is recomputed only after its AS changed. (Without the cache, 97% of
// the deltas at paper scale were recomputations of an unchanged value.)
// Both greedies return the same solutions, bit for bit, as scoring by
// materialized cover sets and recomputing every delta; the output
// digests in tests/infer/bayes_inferencers_test.cpp and the uncached
// greedy in tests/infer/map_reference.hpp pin them.
//
// Probabilities are clamped to [floor, 1 - floor] first, so exactly 0
// and 1 give finite logs. With probabilities in [0, 1], both greedies
// return an empty set when nothing is congested, and an explaining set
// whenever the candidates can explain the observation. On an
// unexplainable observation (see observation.hpp) they return their
// pick among the candidates, which cannot explain it.
#pragma once

#include "ntom/infer/observation.hpp"
#include "ntom/tomo/estimates.hpp"

namespace ntom {

/// Numerical floor for log-probabilities (p clamped to [floor, 1-floor]).
inline constexpr double map_probability_floor = 1e-6;

/// Greedy MAP under link independence. `congestion_prob[e]` = P(X_e=1).
[[nodiscard]] bitvec map_independent(const topology& t,
                                     const interval_observation& obs,
                                     const std::vector<double>& congestion_prob);

/// Greedy MAP with correlation-aware scoring backed by subset estimates.
/// Falls back to marginal scoring for links whose joint probabilities
/// are not identifiable; `marginals` must be estimates.to_link_estimates()
/// (computed once per fit, not per interval). Each state probability
/// is computed once per call: a memo keyed by (AS, congested set) lives
/// for this one interval, so the function stays reentrant and the
/// memo never outlives the estimates it was filled from. With the
/// per-move delta cache about half of the memo's lookups still hit
/// (the before-state every move of one AS version shares), and dropping
/// the memo made bench/micro_pathset's bm_map_correlated 12% slower.
[[nodiscard]] bitvec map_correlated(const topology& t,
                                    const interval_observation& obs,
                                    const probability_estimates& estimates,
                                    const link_estimates& marginals);

}  // namespace ntom

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
// greedy takes its group moves (with their path coverage) and its AS
// state log-probabilities from tables built once per fit (see
// map_correlated_tables), and counts a move's cover by one
// AND+popcount per round. A move's score delta depends
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

#include <memory>

#include "ntom/infer/observation.hpp"
#include "ntom/tomo/estimates.hpp"

namespace ntom {

/// Numerical floor for log-probabilities (p clamped to [floor, 1-floor]).
inline constexpr double map_probability_floor = 1e-6;

/// Greedy MAP under link independence. `congestion_prob[e]` = P(X_e=1).
[[nodiscard]] bitvec map_independent(const topology& t,
                                     const interval_observation& obs,
                                     const std::vector<double>& congestion_prob);

/// The per-fit inputs of map_correlated, and the scratch it reuses.
///
/// Built once per fit from the topology, the subset estimates and
/// their marginals (`marginals` must be estimates.to_link_estimates());
/// it keeps references to all three, which must outlive it. It holds
///  * the group moves: every catalog subset of two or more links, with
///    its AS, its links as a mask over the AS's links and the paths
///    through any of them;
///  * a state table: the log-probability of an AS state, or "the joint
///    estimates cannot express it", keyed by the AS's candidate set and
///    congested set as masks over the AS's links (ascending link ids,
///    fixed by the topology). It fills on first use; an entry is a pure
///    function of the estimates and the key, so a hit returns exactly
///    what a recomputation would. At max_states entries the table
///    clears itself, which changes no result;
///  * the per-interval scratch (candidate masks, moves, solution parts,
///    live list), so that once the state table holds an interval's
///    states, map_correlated allocates nothing.
///
/// map_correlated writes to the tables, so one tables object serves one
/// call at a time: concurrent callers need their own or a lock (the
/// Bayes-Corr estimator holds its tables behind a mutex).
class map_correlated_tables {
 public:
  map_correlated_tables(const topology& t,
                        const probability_estimates& estimates,
                        const link_estimates& marginals);
  ~map_correlated_tables();

  /// Most states the table holds before it clears itself.
  static constexpr std::size_t max_states = std::size_t{1} << 16;

  /// Work counters since construction: state lookups, and the lookups
  /// that missed and computed the state's log-probability.
  [[nodiscard]] std::size_t state_lookups() const noexcept;
  [[nodiscard]] std::size_t state_evaluations() const noexcept;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;

  friend void map_correlated(const interval_observation& obs,
                             map_correlated_tables& tables,
                             bitvec& solution);
};

/// Greedy MAP with correlation-aware scoring backed by the subset
/// estimates `tables` was built from. Falls back to marginal scoring
/// for links whose joint probabilities are not identifiable. Writes the
/// chosen links to `solution`, which is resized to the link universe
/// and otherwise reused.
void map_correlated(const interval_observation& obs,
                    map_correlated_tables& tables, bitvec& solution);

}  // namespace ntom

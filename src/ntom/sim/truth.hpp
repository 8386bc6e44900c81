// Analytic ground truth for a congestion model on a topology.
//
// Because every driver — per-router-link Bernoulli, shared-risk group,
// Gilbert–Elliott chain — is drawn independently, every single-interval
// quantity the estimators target has a closed form:
//
//   P(all links in E good)  = Π_{r ∈ ∪_{e∈E} R(e)} (1 - q_r)
//                           × Π_{groups hitting R(E)} (1 - q_g)
//                           × Π_{chains driving R(E)} (1 - marginal_q)
//   per phase (chains contribute their stationary marginal),
//
// and the experiment-wide value is the phase-mixture weighted by how
// many of the T intervals each phase covers (time averages are exactly
// what a T-interval estimator converges to, also under
// non-stationarity — the paper's point in §4). Error metrics (Fig. 4)
// compare estimates against these values, never against finite-sample
// frequencies.
#pragma once

#include <cstddef>

#include "ntom/sim/congestion.hpp"

namespace ntom {

/// Ground-truth oracle; borrows the topology and model.
class ground_truth {
 public:
  /// `intervals` is the experiment length T used to weight phases.
  ground_truth(const topology& t, const congestion_model& model,
               std::size_t intervals);

  /// P(all links in `links` good), phase-averaged. Empty set: 1.
  [[nodiscard]] double good_probability(const bitvec& links) const;

  /// P(link e congested), phase-averaged.
  [[nodiscard]] double link_congestion_probability(link_id e) const;

  /// P(all links in `links` congested), phase-averaged (the paper's
  /// congestion probability of a set; inclusion-exclusion per phase).
  /// Throws std::invalid_argument if `links` has more than
  /// max_joint_members (corr/joint.hpp) links.
  [[nodiscard]] double set_congestion_probability(const bitvec& links) const;

  /// Per-phase variant of good_probability (used by tests).
  [[nodiscard]] double good_probability_in_phase(const bitvec& links,
                                                 std::size_t phase) const;

 private:
  [[nodiscard]] double phase_weight(std::size_t phase) const;

  const topology& topo_;
  const congestion_model& model_;
  std::size_t intervals_;
};

}  // namespace ntom

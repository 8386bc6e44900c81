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
#include <vector>

#include "ntom/sim/congestion.hpp"
#include "ntom/sim/measurement.hpp"

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

/// Counting consumer over the true-link side of the measurement
/// stream: per-link congested-interval and observed-interval counters,
/// with O(links) state — the streaming counterpart of experiment_data's
/// ground-truth views (finite-sample frequencies, unlike the analytic
/// ground_truth above). consume() adds a chunk and retire() subtracts
/// one exactly (chunks retire in consumption order), so the counters
/// always equal a fresh pass over the chunks consumed and not yet
/// retired — the truth-side mirror of pathset_counter.
class empirical_truth final : public measurement_sink {
 public:
  /// Resets every counter; `intervals` is not needed (intervals()
  /// counts what was consumed).
  void begin(const topology& t, std::size_t intervals) override;
  void consume(const measurement_chunk& chunk) override;

  /// Subtracts `chunk`'s contribution; the chunk must have been
  /// consumed earlier and not yet retired.
  void retire(const measurement_chunk& chunk);

  /// Intervals consumed and not yet retired.
  [[nodiscard]] std::size_t intervals() const noexcept { return intervals_; }

  /// Intervals in which link e was truly congested.
  [[nodiscard]] std::size_t congested_count(link_id e) const {
    return counts_[e];
  }

  /// Finite-sample P(link e congested) = count / T.
  [[nodiscard]] double congestion_frequency(link_id e) const;

  /// Links truly congested in at least one counted interval, derived
  /// from the counters.
  [[nodiscard]] bitvec congested_links() const;

  /// Intervals in which link e was coverable by an OBSERVED path — the
  /// visibility a probe-budget mask (chunk.observed_paths) left for the
  /// link. Truth counters themselves always stay full (the truth plane
  /// is never masked); a congested link with observed_count 0 was
  /// invisible to the masked measurement stream. For unmasked streams
  /// this is intervals() for every path-covered link.
  [[nodiscard]] std::size_t observed_count(link_id e) const {
    return observed_counts_[e];
  }

  /// observed_count / intervals (0 on an empty stream/window).
  [[nodiscard]] double observed_frequency(link_id e) const;

 private:
  /// Adds `chunk`'s contribution to every counter, or subtracts it.
  void tally(const measurement_chunk& chunk, bool retiring);

  const topology* topo_ = nullptr;
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> observed_counts_;
  bitvec all_observable_;  ///< links on >= 1 monitored path.
  std::size_t intervals_ = 0;
};

}  // namespace ntom

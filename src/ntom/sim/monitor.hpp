// Empirical path-set statistics over an experiment.
//
// Probability Computation's measured quantities are of the form
// P(∩_{p∈P} Y_p = 0): the fraction of intervals in which ALL paths of a
// set were good (the left-hand side of Eq. 1). Over the columnar store
// this is one fused AND + popcount across the selected path rows.
//
// path_observations answers such queries over a finished (materialized)
// experiment_data without copying it, for compute_correlation_complete,
// whose adaptive selection (Algorithm 1) needs every interval. Fits over
// a fixed family never retain a matrix and count on the interval stream
// instead: pathset_counter below keeps O(#path-sets) counters.
#pragma once

#include <vector>

#include "ntom/sim/packet_sim.hpp"

namespace ntom {

/// Read-only view over a finished experiment; borrows `data`, which
/// must outlive the view.
class path_observations {
 public:
  explicit path_observations(const experiment_data& data) : data_(&data) {}

  [[nodiscard]] std::size_t intervals() const noexcept {
    return data_->intervals;
  }

  /// Number of intervals where every path in `path_set` was good.
  [[nodiscard]] std::size_t count_all_good(const bitvec& path_set) const;

  /// Paths that were good in every interval.
  [[nodiscard]] const bitvec& always_good_paths() const noexcept {
    return data_->always_good_paths;
  }

  /// The packed path-major good-interval matrix backing the queries.
  [[nodiscard]] const bit_matrix& good_matrix() const noexcept {
    return data_->path_good;
  }

 private:
  const experiment_data* data_;  ///< pointer, so the view stays copyable.
};

/// Online all-good counters over a FIXED family of path sets — the
/// O(chunk)-memory streaming form of Probability Computation's measured
/// quantities. The family must be chosen up front (the Independence and
/// flooded-correlation equation sets are topology-determined, so their
/// fits stream); adaptive selections (Algorithm 1) need the full matrix
/// and materialize a store instead.
///
/// Every counter is an integer that consume() adds to and retire()
/// subtracts from, so the same object serves a one-shot pass and a
/// sliding window: after consuming chunks [0, k) and retiring chunks
/// [0, j) — retire() takes chunks in consumption order — the state
/// equals a fresh counter that consumed chunks [j, k) only, bit for bit.
/// That exactness is what makes the service's windowed fits
/// bit-identical to one-shot fits over the same interval range. Per-path
/// good/observed counters (one count_row per path per chunk) replace a
/// sticky always-good bit, which a retired interval could not un-set.
///
/// Probe-budget masks (measurement_chunk::observed_paths) are fully
/// supported: a masked chunk only counts a path set when every member
/// path was observed (observed_intervals() tracks the per-set
/// denominator the solvers divide by), per-path goodness only
/// accumulates over observed intervals, and always-good additionally
/// requires the path to have been observed at least once. On unmasked
/// streams every formula reduces exactly to the unmasked arithmetic.
class pathset_counter final : public measurement_sink {
 public:
  /// `path_sets` are bit-sets over paths; counts() aligns with them.
  /// An empty family still tracks always_good_paths / intervals — the
  /// streaming drivers use that as a cheap observation tracker.
  explicit pathset_counter(std::vector<bitvec> path_sets = {})
      : sets_(std::move(path_sets)) {}

  /// Resets every counter; `intervals` is not needed (intervals()
  /// counts what was consumed).
  void begin(const topology& t, std::size_t intervals) override;
  void consume(const measurement_chunk& chunk) override;

  /// Subtracts `chunk`'s contribution from every counter. The chunk
  /// must have been consumed earlier and not yet retired; chunks retire
  /// in consumption order (a sliding window).
  void retire(const measurement_chunk& chunk);

  /// Intervals where all paths of sets()[i] were good, aligned with the
  /// constructor family, over the chunks consumed and not yet retired.
  [[nodiscard]] const std::vector<std::size_t>& counts() const noexcept {
    return counts_;
  }

  /// Intervals in which sets()[i] was FULLY observed — the denominator
  /// of the empirical all-good probability under a probe-budget mask.
  /// Equals intervals() for every set on unmasked streams.
  [[nodiscard]] const std::vector<std::size_t>& observed_intervals()
      const noexcept {
    return observed_;
  }

  [[nodiscard]] const std::vector<bitvec>& sets() const noexcept {
    return sets_;
  }

  /// Paths good in every counted interval, derived from the per-path
  /// counters. Once any masked chunk was consumed: good in every
  /// interval the path was observed, and observed at least once.
  [[nodiscard]] bitvec always_good_paths() const;

  /// Intervals consumed and not yet retired.
  [[nodiscard]] std::size_t intervals() const noexcept { return intervals_; }

 private:
  /// Adds `chunk`'s contribution to every counter, or subtracts it.
  void tally(const measurement_chunk& chunk, bool retiring);

  std::vector<bitvec> sets_;
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> observed_;  ///< per set: fully observed ivals.
  std::size_t intervals_ = 0;
  std::vector<std::size_t> good_counts_;    ///< per path: good intervals.
  std::vector<std::size_t> path_observed_;  ///< per path: observed ivals.
  bool masked_seen_ = false;  ///< sticky: any masked chunk consumed.
};

}  // namespace ntom

// Bayesian-Correlation — the inference algorithm the authors built for
// this study [10] (§3.1).
//
// Step 1: Correlation-complete Probability Computation (correlation-set
// aware; ntom/tomo/correlation_complete). Step 2: per-interval greedy
// MAP whose scoring uses the joint subset probabilities. Removes the
// Independence assumption but keeps the other Bayesian sources of
// inaccuracy: expected-value approximation across time scales (hence
// the No-Stationarity failure) and the approximate MAP search; when
// Identifiability++ fails, indistinguishable solutions tie and the pick
// is arbitrary.
#pragma once

#include "ntom/infer/bayes_map.hpp"
#include "ntom/tomo/correlation_complete.hpp"

namespace ntom {

class bayes_correlation_inferencer {
 public:
  bayes_correlation_inferencer(const topology& t, const experiment_data& data,
                               const correlation_complete_params& params = {});

  [[nodiscard]] bitvec infer(const bitvec& congested_paths) const;

  /// Probe-budget variant: `observed_paths` restricts the good-path
  /// evidence (empty = fully observed).
  [[nodiscard]] bitvec infer(const bitvec& congested_paths,
                             const bitvec& observed_paths) const;

  [[nodiscard]] const correlation_complete_result& step1() const noexcept {
    return step1_;
  }

  /// step1().estimates.to_link_estimates(), computed once at fit time:
  /// the MAP search's fallback scoring reads it on every interval.
  [[nodiscard]] const link_estimates& marginals() const noexcept {
    return marginals_;
  }

 private:
  const topology* topo_;
  correlation_complete_result step1_;
  link_estimates marginals_;
};

}  // namespace ntom

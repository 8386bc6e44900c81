// Small statistics helpers shared by the experiment harness and benches:
// running mean/variance and empirical CDFs (Fig. 4(c) is a CDF of
// per-link absolute errors).
#pragma once

#include <cstddef>
#include <vector>

namespace ntom {

/// Numerically stable running mean and variance (Welford).
class running_stats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical distribution over a fixed sample; supports quantiles and CDF
/// evaluation at arbitrary points.
class empirical_cdf {
 public:
  explicit empirical_cdf(std::vector<double> samples);

  [[nodiscard]] std::size_t count() const noexcept { return sorted_.size(); }

  /// Fraction of samples <= x.
  [[nodiscard]] double at(double x) const noexcept;

  /// q in [0,1]; nearest-rank quantile. Requires a non-empty sample.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::vector<double> sorted_;
};

}  // namespace ntom

// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in ntom draws from an explicitly-seeded
// `rng` instance, so whole experiments are reproducible from a single
// 64-bit seed. The generator is xoshiro256++ (Blackman & Vigna), seeded
// through splitmix64; both are small, fast, and well understood.
//
// The probe simulation draws one Bernoulli per packet, so it samples
// through binomial_batch: all of an interval's paths at once, sixteen
// generator lanes each drawing one segment of consecutive paths, with
// exactly the counts and the final state of the per-path rng::binomial
// loop (docs/simd_kernels.md).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace ntom {

/// Scrambles a 64-bit value into a well-mixed 64-bit value.
/// Used for seeding and for deriving independent child seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ pseudo-random generator with convenience distributions.
///
/// Not thread-safe; create one instance per thread / per experiment arm.
class rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Raw 64 uniformly random bits.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t uniform_index(std::size_t n) noexcept;

  /// True with probability p (p outside [0,1] is clamped).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Binomially distributed count of successes among n Bernoulli(p) trials.
  /// Uses per-trial sampling for small n and a normal approximation for
  /// large n*p(1-p); exact enough for packet-loss simulation.
  ///
  /// Draw consumption, which binomial_batch reproduces: none when n == 0,
  /// p <= 0 or p >= 1; exactly n (one uniform() per trial) when
  /// 0 < p < 1 and n <= 256, and also for a NaN p at any n. Above 256
  /// trials the normal approximation may be taken instead, and its draw
  /// count depends on p.
  [[nodiscard]] std::size_t binomial(std::size_t n, double p) noexcept;

  /// Standard normal via Box-Muller.
  [[nodiscard]] double normal() noexcept;

  /// Derives an independent child generator (e.g., per experiment arm).
  [[nodiscard]] rng split() noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n). Requires k <= n.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k);

 private:
  friend class binomial_batch;
  std::array<std::uint64_t, 4> state_{};
};

/// A jump of the xoshiro256 state by a fixed number of draws.
///
/// The state update is linear over GF(2), so advancing by n steps is a
/// fixed 256x256 bit matrix; column i is the unit state e_i stepped n
/// times. The matrix is stored as 32 x 256 rows of 256 bits, one row per
/// (state byte, byte value), so a jump is 32 row loads XORed together.
/// The table is 256 KiB.
class rng_jump {
 public:
  /// A jump of `steps` draws; building it takes 256 * steps generator
  /// steps.
  explicit rng_jump(std::size_t steps);

  /// A jump of `times` applications of `base`, built by applying `base`
  /// to each unit state `times` times.
  rng_jump(const rng_jump& base, std::size_t times);

  /// Advances a raw xoshiro256 state by the jump's step count.
  void apply(std::array<std::uint64_t, 4>& state) const noexcept;

 private:
  /// Column i is the image of the unit state e_i.
  using column_set = std::array<std::array<std::uint64_t, 4>, 256>;
  [[nodiscard]] static column_set unit_columns() noexcept;
  void fill(const column_set& column);

  std::vector<std::array<std::uint64_t, 4>> table_;
};

/// rng::binomial over many probabilities with one fixed trial count,
/// drawn lane-parallel: draw() gives exactly the counts of calling
/// r.binomial(trials, p[i]) for i = 0, 1, ... in order, and leaves `r`
/// in exactly the state that loop would.
///
/// For 1 <= trials <= 256, each path with 0 < p < 1 (or a NaN p)
/// consumes `trials` draws; call these the live paths. With
/// L = simd::xoshiro_lanes and G = ceil(paths / L) from the
/// constructor, lane j draws live paths [jG, (j+1)G) one after another,
/// so its start state is j jumps of G * trials draws past the batch's.
/// One call of the dispatched simd::xoshiro_count_below kernel then
/// counts, per path, the draws whose top 53 bits fall below
/// ceil(p * 2^53), which is exactly uniform() < p. More than L * G live
/// paths run in further rounds of the same shape. Other trial counts
/// call rng::binomial per path.
class binomial_batch {
 public:
  /// Sizes the segments for `paths` paths per draw() and builds the
  /// jump table when 1 <= trials <= 256.
  binomial_batch(std::size_t trials, std::size_t paths);

  /// out[i] = r.binomial(trials, p[i]) for i in [0, count), at any
  /// count.
  void draw(rng& r, const double* p, std::size_t count, std::size_t* out);

 private:
  std::size_t trials_;
  std::size_t segment_;  ///< G: live paths per lane and round.
  std::optional<rng_jump> jump_;  ///< G * trials draws.
  // One round's kernel operands, slot L * g + j for path g of lane j.
  std::vector<std::uint64_t> limit_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::size_t> path_;
};

}  // namespace ntom

#include "ntom/util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "ntom/util/simd/simd.hpp"

namespace ntom {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// The xoshiro256 state update: linear over GF(2).
inline void step(std::array<std::uint64_t, 4>& s) noexcept {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

/// The integer form of `uniform() < p` for 0 < p < 1: uniform() is
/// (x >> 11) * 2^-53, the scaling of p by 2^53 is exact, and an integer
/// is below t iff it is below ceil(t). A NaN p compares false for every
/// draw, so it gets limit 0.
inline std::uint64_t uniform_limit(double p) noexcept {
  const double t = p * 0x1p53;
  if (!(t > 0.0)) return 0;
  auto u = static_cast<std::uint64_t>(t);
  if (static_cast<double>(u) < t) ++u;
  return u;
}

/// Largest trial count for which rng::binomial always takes the
/// per-trial loop (one draw per trial).
constexpr std::size_t max_exact_trials = 256;

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

rng::rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  step(state_);
  return result;
}

double rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::size_t rng::uniform_index(std::size_t n) noexcept {
  // Rejection-free multiply-shift (Lemire); bias is negligible for the
  // n values used here (<< 2^32), but we use 128-bit math anyway.
  const unsigned __int128 m =
      static_cast<unsigned __int128>(next_u64()) * static_cast<unsigned __int128>(n);
  return static_cast<std::size_t>(m >> 64);
}

bool rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::size_t rng::binomial(std::size_t n, double p) noexcept {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return n;
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1.0 - p);
  if (n > max_exact_trials && var > 16.0) {
    const double draw = mean + std::sqrt(var) * normal();
    if (draw <= 0.0) return 0;
    if (draw >= static_cast<double>(n)) return n;
    return static_cast<std::size_t>(std::llround(draw));
  }
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += bernoulli(p) ? 1 : 0;
  return count;
}

double rng::normal() noexcept {
  // Box-Muller; we discard the second variate for simplicity.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

rng rng::split() noexcept { return rng{next_u64()}; }

rng_jump::rng_jump(std::size_t steps) {
  column_set column = unit_columns();
  for (auto& s : column) {
    for (std::size_t k = 0; k < steps; ++k) step(s);
  }
  fill(column);
}

rng_jump::rng_jump(const rng_jump& base, std::size_t times) {
  column_set column = unit_columns();
  for (auto& s : column) {
    for (std::size_t k = 0; k < times; ++k) base.apply(s);
  }
  fill(column);
}

rng_jump::column_set rng_jump::unit_columns() noexcept {
  column_set column{};
  for (std::size_t i = 0; i < 256; ++i) {
    column[i][i / 64] = std::uint64_t{1} << (i % 64);
  }
  return column;
}

void rng_jump::fill(const column_set& column) {
  table_.resize(32 * 256);
  // Row (b, v) is the XOR of the columns of the bits set in byte value v
  // at state byte b (state bits 8b .. 8b+7); each row extends the row
  // without v's lowest set bit.
  for (std::size_t b = 0; b < 32; ++b) {
    std::array<std::uint64_t, 4>* rows = &table_[b * 256];
    for (unsigned v = 1; v < 256; ++v) {
      const auto& prev = rows[v & (v - 1)];
      const auto& col = column[8 * b + static_cast<unsigned>(__builtin_ctz(v))];
      for (std::size_t w = 0; w < 4; ++w) rows[v][w] = prev[w] ^ col[w];
    }
  }
}

void rng_jump::apply(std::array<std::uint64_t, 4>& state) const noexcept {
  std::array<std::uint64_t, 4> out{};
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t k = 0; k < 8; ++k) {
      const std::size_t byte = (state[w] >> (8 * k)) & 0xff;
      const auto& row = table_[(8 * w + k) * 256 + byte];
      for (std::size_t i = 0; i < 4; ++i) out[i] ^= row[i];
    }
  }
  state = out;
}

binomial_batch::binomial_batch(std::size_t trials, std::size_t paths)
    : trials_(trials),
      segment_(std::max<std::size_t>(
          1, (paths + simd::xoshiro_lanes - 1) / simd::xoshiro_lanes)) {
  if (trials < 1 || trials > max_exact_trials) return;
  jump_.emplace(rng_jump(trials), segment_);
  const std::size_t slots = simd::xoshiro_lanes * segment_;
  limit_.resize(slots);
  counts_.resize(slots);
  path_.resize(slots);
}

void binomial_batch::draw(rng& r, const double* p, std::size_t count,
                          std::size_t* out) {
  if (!jump_) {
    for (std::size_t i = 0; i < count; ++i) out[i] = r.binomial(trials_, p[i]);
    return;
  }
  constexpr std::size_t L = simd::xoshiro_lanes;
  const std::size_t G = segment_;
  // Lanes in SoA layout: state[L * w + j] is word w of lane j.
  std::uint64_t state[4 * L];
  std::array<std::uint64_t, 4> next = r.state_;
  // Live paths fill lane 0's G segments, then lane 1's, and so on:
  // segment g of lane j is slot L * g + j.
  std::size_t lane = 0, seg = 0;
  // Lane j starts j jumps past `next`. The last used lane's `last`
  // paths end the round, so its state after them is the start of the
  // following path; the lanes before it run their remaining segments
  // after that state is taken. Counts of unused slots are ignored, so
  // their limits are whatever an earlier round left, and unused lanes
  // rerun the last used lane's start.
  const auto run_round = [&] {
    const std::size_t lanes = seg > 0 ? lane + 1 : lane;
    const std::size_t last = seg > 0 ? seg : G;
    std::array<std::uint64_t, 4> s = next;
    for (std::size_t j = 0; j < L; ++j) {
      if (j > 0 && j < lanes) jump_->apply(s);
      for (std::size_t w = 0; w < 4; ++w) state[L * w + j] = s[w];
    }
    simd::xoshiro_count_below(state, limit_.data(), trials_, last,
                              counts_.data());
    for (std::size_t w = 0; w < 4; ++w) next[w] = state[L * w + lanes - 1];
    if (last < G && lanes > 1) {
      simd::xoshiro_count_below(state, limit_.data() + L * last, trials_,
                                G - last, counts_.data() + L * last);
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::size_t segments = j + 1 < lanes ? G : last;
      for (std::size_t g = 0; g < segments; ++g) {
        out[path_[L * g + j]] = counts_[L * g + j];
      }
    }
    lane = seg = 0;
  };
  for (std::size_t i = 0; i < count; ++i) {
    // The same tests, in the same order, as rng::binomial.
    if (p[i] <= 0.0) {
      out[i] = 0;
    } else if (p[i] >= 1.0) {
      out[i] = trials_;
    } else {
      const std::size_t slot = L * seg + lane;
      limit_[slot] = uniform_limit(p[i]);
      path_[slot] = i;
      if (++seg == G) {
        seg = 0;
        if (++lane == L) run_round();
      }
    }
  }
  if (lane > 0 || seg > 0) run_round();
  r.state_ = next;
}

std::vector<std::size_t> rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  // Partial Fisher-Yates over an index vector.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  if (k > n) k = n;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_index(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace ntom

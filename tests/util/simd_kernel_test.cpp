// Every dispatch level must be bit-identical to the scalar reference —
// the correctness oracle of the SIMD kernel layer. The sweeps cover the
// ragged shapes the packed stores produce: empty, single-word,
// word-boundary +/- 1, multi-word with partial tails, and the
// Harley–Seal main-loop boundary (64 words per iteration on AVX2).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "ntom/util/bit_matrix.hpp"
#include "ntom/util/bitvec.hpp"
#include "ntom/util/rng.hpp"
#include "ntom/util/simd/simd.hpp"

namespace {

using ntom::bit_matrix;
using ntom::bitvec;
using ntom::rng;
namespace simd = ntom::simd;

/// Restores the entry dispatch level on scope exit so a failing sweep
/// cannot poison later tests.
struct level_guard {
  simd::level saved = simd::active_level();
  ~level_guard() { simd::set_level(saved); }
};

/// Naive per-bit popcount, independent of every kernel under test.
std::size_t naive_popcount(const std::uint64_t* a, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    for (int b = 0; b < 64; ++b) total += (a[w] >> b) & 1u;
  }
  return total;
}

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  rng r(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = r.next_u64();
  return out;
}

// Word counts covering 0, sub-vector tails, vector boundaries, and the
// 64-word Harley–Seal block boundary.
const std::size_t kWordSizes[] = {0,  1,  2,  3,  4,  5,   7,   8,  9,
                                  15, 16, 17, 31, 32, 63,  64,  65, 100,
                                  127, 128, 129, 313, 1024};

TEST(SimdKernel, LevelNamesRoundTrip) {
  for (const simd::level l : {simd::level::scalar, simd::level::popcnt,
                              simd::level::avx2, simd::level::avx512}) {
    simd::level parsed{};
    ASSERT_TRUE(simd::parse_level(simd::level_name(l), parsed));
    EXPECT_EQ(parsed, l);
  }
  simd::level parsed{};
  EXPECT_FALSE(simd::parse_level("sse9", parsed));
  EXPECT_FALSE(simd::parse_level("", parsed));
}

TEST(SimdKernel, AvailableLevelsAscendToDetected) {
  const auto levels = simd::available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::level::scalar);
  EXPECT_EQ(levels.back(), simd::detected_level());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
  EXPECT_LE(static_cast<int>(simd::active_level()),
            static_cast<int>(simd::detected_level()));
}

TEST(SimdKernel, SetLevelRejectsAboveDetected) {
  level_guard guard;
  const auto detected = simd::detected_level();
  if (detected != simd::level::avx512) {
    EXPECT_FALSE(simd::set_level(simd::level::avx512));
    EXPECT_EQ(simd::active_level(), guard.saved);
  }
  ASSERT_TRUE(simd::set_level(simd::level::scalar));
  EXPECT_EQ(simd::active_level(), simd::level::scalar);
  ASSERT_TRUE(simd::set_level(detected));
  EXPECT_EQ(simd::active_level(), detected);
}

TEST(SimdKernel, PopcountWordsMatchesReferenceAcrossLevels) {
  level_guard guard;
  for (const std::size_t n : kWordSizes) {
    auto data = random_words(n, 1000 + n);
    // Edge patterns on top of the random fill.
    if (n > 0) {
      data[0] = ~std::uint64_t{0};
      data[n - 1] = 0x8000000000000001ULL;
    }
    const std::size_t expected = naive_popcount(data.data(), n);
    for (const simd::level l : simd::available_levels()) {
      ASSERT_TRUE(simd::set_level(l));
      EXPECT_EQ(simd::popcount_words(data.data(), n), expected)
          << "level=" << simd::level_name(l) << " n=" << n;
    }
  }
}

TEST(SimdKernel, PopcountAnd2And3MatchesReferenceAcrossLevels) {
  level_guard guard;
  for (const std::size_t n : kWordSizes) {
    const auto a = random_words(n, 2000 + n);
    const auto b = random_words(n, 3000 + n);
    const auto c = random_words(n, 4000 + n);
    std::vector<std::uint64_t> and2(n), and3(n);
    for (std::size_t w = 0; w < n; ++w) {
      and2[w] = a[w] & b[w];
      and3[w] = a[w] & b[w] & c[w];
    }
    const std::size_t expected2 = naive_popcount(and2.data(), n);
    const std::size_t expected3 = naive_popcount(and3.data(), n);
    for (const simd::level l : simd::available_levels()) {
      ASSERT_TRUE(simd::set_level(l));
      EXPECT_EQ(simd::popcount_and2(a.data(), b.data(), n), expected2)
          << "level=" << simd::level_name(l) << " n=" << n;
      EXPECT_EQ(simd::popcount_and3(a.data(), b.data(), c.data(), n),
                expected3)
          << "level=" << simd::level_name(l) << " n=" << n;
    }
  }
}

TEST(SimdKernel, AndnotCountMatchesReferenceAcrossLevels) {
  level_guard guard;
  for (const std::size_t n : kWordSizes) {
    auto a = random_words(n, 7000 + n);
    auto b = random_words(n, 8000 + n);
    if (n > 0) {
      // Edge patterns: a full minuend word against an empty subtrahend
      // word (everything survives) and the mirror (nothing does).
      a[0] = ~std::uint64_t{0};
      b[0] = 0;
      a[n - 1] = 0x8000000000000001ULL;
      b[n - 1] = ~std::uint64_t{0};
    }
    std::vector<std::uint64_t> diff(n);
    for (std::size_t w = 0; w < n; ++w) diff[w] = a[w] & ~b[w];
    const std::size_t expected = naive_popcount(diff.data(), n);
    for (const simd::level l : simd::available_levels()) {
      ASSERT_TRUE(simd::set_level(l));
      EXPECT_EQ(simd::andnot_count(a.data(), b.data(), n), expected)
          << "level=" << simd::level_name(l) << " n=" << n;
    }
  }
}

/// Doubles spanning the float kernel's edge cases: signed zeros,
/// subnormals, and random mantissas at magnitudes 1e-300 .. 1e300.
std::vector<double> edge_doubles(std::size_t n, rng& r) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             2.5e-310,
                             -7.0e-320,
                             std::numeric_limits<double>::min(),
                             1.0,
                             -1.0};
  std::vector<double> out(n);
  for (double& x : out) {
    if (r.bernoulli(0.25)) {
      x = specials[r.uniform_index(std::size(specials))];
    } else {
      const double sign = r.bernoulli(0.5) ? -1.0 : 1.0;
      x = sign * r.uniform(1.0, 10.0) * std::pow(10.0, r.uniform(-300, 300));
    }
  }
  return out;
}

TEST(SimdKernel, ReflectRowsMatchesReferenceAcrossLevels) {
  level_guard guard;
  rng r(4242);
  const double alphas[] = {0.0,     -0.0,   1.0,    -1.0,  0.5,
                           -3.25e7, 1e-300, -1e300, 5e-324, 1.2345678901234567};
  constexpr std::size_t kAlphas = std::size(alphas);
  // Lengths 0..67 cover every vector-tail shape of the 4- and 8-lane
  // rungs many times over; 1..5 rows cover a partial block, a full
  // block of four and one past it; the offsets misalign the rows, x and
  // y against the lanes and against each other.
  for (std::size_t n = 0; n <= 67; ++n) {
    for (std::size_t count = 1; count <= 5; ++count) {
      const std::size_t stride = n + 3;
      const std::size_t row_off = (n + count) % 3;
      const std::size_t x_off = (n + 1) % 4;
      const std::size_t y_off = (count + 2) % 5;
      const std::vector<double> rows0 =
          edge_doubles(row_off + count * stride, r);
      const std::vector<double> x = edge_doubles(x_off + n, r);
      const std::vector<double> y0 = edge_doubles(y_off + n, r);
      for (std::size_t first = 0; first < kAlphas; ++first) {
        std::vector<double> a(count);
        std::vector<double> b(count);
        for (std::size_t q = 0; q < count; ++q) {
          a[q] = alphas[(first + q) % kAlphas];
          b[q] = alphas[(first + 3 * q + 1) % kAlphas];
        }
        // Update and dot, update only, dot only.
        const std::pair<bool, bool> modes[] = {
            {true, true}, {true, false}, {false, true}};
        for (const auto& [update, dot] : modes) {
          // One row after the other, each step an unfused multiply then
          // add: the contract every rung keeps.
          std::vector<double> want_rows = rows0;
          std::vector<double> want_y = y0;
          for (std::size_t q = 0; q < count; ++q) {
            double* row = want_rows.data() + row_off + q * stride;
            for (std::size_t j = 0; j < n; ++j) {
              if (update) {
                const double prod = a[q] * x[x_off + j];
                row[j] = row[j] + prod;
              }
              if (dot) {
                const double prod = b[q] * row[j];
                want_y[y_off + j] = want_y[y_off + j] + prod;
              }
            }
          }
          for (const simd::level l : simd::available_levels()) {
            ASSERT_TRUE(simd::set_level(l));
            std::vector<double> got_rows = rows0;
            std::vector<double> got_y = y0;
            std::vector<double*> ptrs;
            for (std::size_t q = 0; q < count; ++q) {
              ptrs.push_back(got_rows.data() + row_off + q * stride);
            }
            simd::reflect_rows(ptrs.data(), count, update ? a.data() : nullptr,
                               x.data() + x_off, dot ? b.data() : nullptr,
                               got_y.data() + y_off, n);
            // memcmp, not ==: the signs of zeros must match too.
            EXPECT_EQ(std::memcmp(got_rows.data(), want_rows.data(),
                                  got_rows.size() * sizeof(double)),
                      0)
                << "rows: level=" << simd::level_name(l) << " n=" << n
                << " count=" << count << " first=" << first
                << " update=" << update << " dot=" << dot;
            EXPECT_TRUE(got_y.empty() ||
                        std::memcmp(got_y.data(), want_y.data(),
                                    got_y.size() * sizeof(double)) == 0)
                << "y: level=" << simd::level_name(l) << " n=" << n
                << " count=" << count << " first=" << first
                << " update=" << update << " dot=" << dot;
          }
        }
      }
    }
  }
}

TEST(SimdKernel, XoshiroCountBelowMatchesReferenceAcrossLevels) {
  level_guard guard;
  constexpr std::size_t L = simd::xoshiro_lanes;
  constexpr std::size_t kMaxSegments = 5;
  rng r(777);
  for (const std::size_t steps : {0u, 1u, 2u, 7u, 64u, 200u, 256u, 1000u}) {
    for (std::size_t trial = 0; trial < 8; ++trial) {
      // Zero, one and several runs per lane.
      const std::size_t segments = trial % (kMaxSegments + 1);
      std::uint64_t state0[4 * L];
      for (auto& w : state0) w = r.next_u64();
      // Limits at the edges of the 53-bit range and inside it.
      const std::uint64_t edges[] = {0, 1, std::uint64_t{1} << 52,
                                     std::uint64_t{1} << 53};
      std::uint64_t limit[kMaxSegments * L];
      for (std::size_t j = 0; j < kMaxSegments * L; ++j) {
        limit[j] = (trial + j) % 3 == 0 ? edges[(trial + j) % 4]
                                        : r.next_u64() >> 11;
      }

      ASSERT_TRUE(simd::set_level(simd::level::scalar));
      std::uint64_t ref_state[4 * L];
      std::uint64_t ref_counts[kMaxSegments * L] = {};
      std::memcpy(ref_state, state0, sizeof(state0));
      simd::xoshiro_count_below(ref_state, limit, steps, segments,
                                ref_counts);
      for (const std::uint64_t c : ref_counts) EXPECT_LE(c, steps);

      for (const simd::level l : simd::available_levels()) {
        ASSERT_TRUE(simd::set_level(l));
        std::uint64_t state[4 * L];
        std::uint64_t counts[kMaxSegments * L] = {};
        std::memcpy(state, state0, sizeof(state0));
        simd::xoshiro_count_below(state, limit, steps, segments, counts);
        EXPECT_EQ(std::memcmp(state, ref_state, sizeof(state)), 0)
            << "level=" << simd::level_name(l) << " steps=" << steps
            << " segments=" << segments;
        EXPECT_EQ(std::memcmp(counts, ref_counts, sizeof(counts)), 0)
            << "level=" << simd::level_name(l) << " steps=" << steps
            << " segments=" << segments;
      }
    }
  }
}

/// Random matrix with every tail-word shape; bits past cols stay zero
/// by construction (set via the public API).
bit_matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  bit_matrix m(rows, cols);
  rng r(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (r.next_u64() & 1u) m.set(i, c);
    }
  }
  return m;
}

// Ragged row widths from the issue checklist: 0, 1, 63, 64, 65,
// 4095-bit rows all exercise distinct tail-word masks.
const std::size_t kBitSizes[] = {0, 1, 63, 64, 65, 130, 4095};

TEST(SimdKernel, BitMatrixKernelsIdenticalAcrossLevels) {
  level_guard guard;
  for (const std::size_t cols : kBitSizes) {
    const bit_matrix m = random_matrix(6, cols, 70 + cols);
    bitvec pair(6), triple(6), wide(6);
    pair.set(0);
    pair.set(3);
    triple.set(1);
    triple.set(2);
    triple.set(4);
    for (std::size_t i = 0; i < 5; ++i) wide.set(i);

    // Scalar first: the reference row of the sweep.
    ASSERT_TRUE(simd::set_level(simd::level::scalar));
    const std::size_t ref_count = m.count();
    const std::size_t ref_row0 = m.count_row(0);
    const std::size_t ref_pair = m.and_count(pair);
    const std::size_t ref_triple = m.and_count(triple);
    const std::size_t ref_wide = m.and_count(wide);
    const bitvec ref_full = m.full_rows();

    for (const simd::level l : simd::available_levels()) {
      ASSERT_TRUE(simd::set_level(l));
      EXPECT_EQ(m.count(), ref_count) << simd::level_name(l);
      EXPECT_EQ(m.count_row(0), ref_row0) << simd::level_name(l);
      EXPECT_EQ(m.and_count(pair), ref_pair) << simd::level_name(l);
      EXPECT_EQ(m.and_count(triple), ref_triple) << simd::level_name(l);
      EXPECT_EQ(m.and_count(wide), ref_wide) << simd::level_name(l);
      EXPECT_EQ(m.full_rows(), ref_full) << simd::level_name(l);
    }
  }
}

TEST(SimdKernel, BitvecCountIdenticalAcrossLevels) {
  level_guard guard;
  for (const std::size_t bits : kBitSizes) {
    bitvec v(bits);
    rng r(90 + bits);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < bits; ++i) {
      if (r.next_u64() & 1u) {
        v.set(i);
        ++expected;
      }
    }
    for (const simd::level l : simd::available_levels()) {
      ASSERT_TRUE(simd::set_level(l));
      EXPECT_EQ(v.count(), expected)
          << "level=" << simd::level_name(l) << " bits=" << bits;
    }
  }
}

TEST(SimdKernel, BitvecAndAndnotCountsMatchSetAlgebra) {
  level_guard guard;
  for (const std::size_t bits : kBitSizes) {
    bitvec a(bits), b(bits);
    rng r(9000 + bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (r.next_u64() & 1u) a.set(i);
      if (r.next_u64() & 1u) b.set(i);
    }
    bitvec inter = a;
    inter &= b;
    bitvec diff = a;
    diff.subtract(b);
    for (const simd::level l : simd::available_levels()) {
      ASSERT_TRUE(simd::set_level(l));
      EXPECT_EQ(a.and_count(b), inter.count())
          << "level=" << simd::level_name(l) << " bits=" << bits;
      EXPECT_EQ(a.andnot_count(b), diff.count())
          << "level=" << simd::level_name(l) << " bits=" << bits;
    }
  }
}

TEST(SimdKernel, BlockedTransposeMatchesNaive) {
  // Shapes straddling the 64-bit block and 512-bit macro-tile edges.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 5},  {5, 0},   {1, 1},    {63, 65},  {64, 64},   {65, 63},
      {130, 257}, {300, 70}, {511, 513}, {513, 511}, {1030, 40}};
  for (const auto& [rows, cols] : shapes) {
    const bit_matrix m = random_matrix(rows, cols, rows * 7919 + cols);
    const bit_matrix t = m.transposed();
    ASSERT_EQ(t.rows(), cols);
    ASSERT_EQ(t.cols(), rows);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(m.test(i, c), t.test(c, i))
            << rows << "x" << cols << " @ (" << i << "," << c << ")";
      }
    }
    EXPECT_EQ(t.transposed(), m);
  }
}

}  // namespace

#include "ntom/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "ntom/util/simd/simd.hpp"

namespace ntom {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(0.25, 0.75);
    EXPECT_GE(x, 0.25);
    EXPECT_LT(x, 0.75);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIndexCoversRange) {
  rng r(3);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_index(10));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(RngTest, BernoulliEdgeCases) {
  rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  rng r(13);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BinomialEdgeCases) {
  rng r(17);
  EXPECT_EQ(r.binomial(100, 0.0), 0u);
  EXPECT_EQ(r.binomial(100, 1.0), 100u);
  EXPECT_EQ(r.binomial(0, 0.5), 0u);
}

TEST(RngTest, BinomialMeanSmallN) {
  rng r(19);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(r.binomial(50, 0.2));
  EXPECT_NEAR(sum / trials, 10.0, 0.2);
}

TEST(RngTest, BinomialMeanLargeNUsesNormalApprox) {
  rng r(23);
  double sum = 0.0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    const auto x = r.binomial(10000, 0.4);
    EXPECT_LE(x, 10000u);
    sum += static_cast<double>(x);
  }
  EXPECT_NEAR(sum / trials, 4000.0, 15.0);
}

TEST(RngTest, NormalMoments) {
  rng r(29);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, SplitProducesIndependentStream) {
  rng a(31);
  rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, ShufflePreservesElements) {
  rng r(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  r.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  rng r(41);
  const auto sample = r.sample_without_replacement(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto i : sample) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  rng r(43);
  const auto sample = r.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementClampsOversizedK) {
  rng r(47);
  const auto sample = r.sample_without_replacement(3, 10);
  EXPECT_EQ(sample.size(), 3u);
}

TEST(RngTest, SplitMix64KnownSequenceIsStable) {
  std::uint64_t s1 = 0, s2 = 0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

TEST(RngTest, JumpAheadEqualsSteps) {
  // The xoshiro256 state update, written out here as the oracle.
  const auto step = [](std::array<std::uint64_t, 4>& s) {
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
  };
  const auto check = [&](const rng_jump& jump, std::size_t n,
                         std::uint64_t seed) {
    rng words(seed);
    for (int trial = 0; trial < 8; ++trial) {
      std::array<std::uint64_t, 4> jumped;
      for (auto& w : jumped) w = words.next_u64();
      std::array<std::uint64_t, 4> stepped = jumped;
      jump.apply(jumped);
      for (std::size_t k = 0; k < n; ++k) step(stepped);
      EXPECT_EQ(jumped, stepped) << "n=" << n << " trial=" << trial;
    }
  };
  for (const std::size_t n : {1u, 63u, 64u, 200u, 256u}) {
    check(rng_jump(n), n, 53 + n);
  }
  // The segment jumps binomial_batch composes: G times `trials` draws.
  const std::pair<std::size_t, std::size_t> composed[] = {
      {1, 1}, {200, 1}, {200, 2}, {7, 38}, {200, 15}, {256, 38}};
  for (const auto& [trials, times] : composed) {
    check(rng_jump(rng_jump(trials), times), trials * times, 71 + times);
  }
}

TEST(RngTest, BinomialBatchMatchesSequential) {
  namespace simd = ntom::simd;
  constexpr std::size_t L = simd::xoshiro_lanes;
  const simd::level saved = simd::active_level();
  // Non-consuming (<= 0, >= 1), consuming (0 < p < 1, the extremes
  // included) and NaN, which consumes its draws and never succeeds.
  const double specials[] = {0.0,
                             -0.0,
                             -1.0,
                             1.0,
                             1.5,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             1.0 - 0x1p-53,
                             0.5};
  constexpr std::size_t kSpecials = std::size(specials);
  rng pick(59);
  // Counts and the next 8 next_u64() values against a sequential
  // binomial() loop from the same seed, at every level.
  const auto check = [&](binomial_batch& batch, std::size_t n,
                         std::size_t paths, const std::vector<double>& p) {
    const std::size_t len = p.size();
    const std::uint64_t seed = 1000 * n + 7 * paths + len;
    rng sequential(seed);
    std::vector<std::size_t> expected(len);
    for (std::size_t i = 0; i < len; ++i) {
      expected[i] = sequential.binomial(n, p[i]);
    }
    std::uint64_t expected_next[8];
    for (auto& x : expected_next) x = sequential.next_u64();

    for (const simd::level l : simd::available_levels()) {
      ASSERT_TRUE(simd::set_level(l));
      rng r(seed);
      std::vector<std::size_t> got(len, 12345);
      batch.draw(r, p.data(), len, got.data());
      EXPECT_EQ(got, expected) << "level=" << simd::level_name(l)
                               << " n=" << n << " paths=" << paths
                               << " len=" << len;
      for (const std::uint64_t x : expected_next) {
        ASSERT_EQ(r.next_u64(), x)
            << "level=" << simd::level_name(l) << " n=" << n
            << " paths=" << paths << " len=" << len;
      }
    }
  };
  const auto mixed = [&](std::size_t len) {
    std::vector<double> p(len);
    for (double& x : p) {
      const std::size_t k = pick.uniform_index(kSpecials + 3);
      x = k < kSpecials ? specials[k] : pick.uniform();
    }
    return p;
  };
  const auto all_live = [&](std::size_t len) {
    std::vector<double> p(len);
    for (double& x : p) x = pick.uniform();
    return p;
  };
  for (const std::size_t n :
       {0u, 1u, 2u, 7u, 64u, 200u, 256u, 257u, 300u, 1000u}) {
    // One path per lane (G = 1): lengths 0..67 cover several rounds and
    // every ragged round.
    {
      binomial_batch batch(n, 0);
      for (std::size_t len = 0; len <= 67; ++len) {
        check(batch, n, 0, mixed(len));
      }
    }
    // Segments of G = 3, 7 and 32 paths per lane: rounds of 48, 112 and
    // 512 live paths, ragged last segments and lanes, several rounds,
    // and live counts far below the built count.
    for (const std::size_t paths : {40u, 100u, 500u}) {
      binomial_batch batch(n, paths);
      const std::size_t round = L * ((paths + L - 1) / L);
      for (std::size_t len = 0; len <= 40; ++len) {
        check(batch, n, paths, mixed(len));
      }
      for (const std::size_t len :
           {paths - 1, paths, paths + 1, 2 * paths + 5, 3 * round + 2}) {
        check(batch, n, paths, mixed(len));
      }
      for (const std::size_t len :
           {round - 1, round, round + 1, 2 * round, 2 * round + 3}) {
        check(batch, n, paths, all_live(len));
      }
    }
  }
  simd::set_level(saved);
}

}  // namespace
}  // namespace ntom

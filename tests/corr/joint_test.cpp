#include "ntom/corr/joint.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ntom/util/rng.hpp"

namespace ntom {
namespace {

/// g backed by an explicit joint distribution over k binary links:
/// state_prob[mask] = P(links in mask congested, rest good).
class joint_distribution {
 public:
  explicit joint_distribution(std::vector<double> state_prob)
      : state_prob_(std::move(state_prob)) {
    k_ = 0;
    while ((std::size_t{1} << k_) < state_prob_.size()) ++k_;
  }

  /// P(all links in `set` good) = sum of states where set ∩ mask = ∅.
  double good(const bitvec& set) const {
    double total = 0.0;
    for (std::size_t mask = 0; mask < state_prob_.size(); ++mask) {
      bool compatible = true;
      set.for_each([&](std::size_t e) {
        if (mask & (std::size_t{1} << e)) compatible = false;
      });
      if (compatible) total += state_prob_[mask];
    }
    return total;
  }

  /// P(all links in `set` congested).
  double congested(const bitvec& set) const {
    double total = 0.0;
    for (std::size_t mask = 0; mask < state_prob_.size(); ++mask) {
      bool all = true;
      set.for_each([&](std::size_t e) {
        if (!(mask & (std::size_t{1} << e))) all = false;
      });
      if (all) total += state_prob_[mask];
    }
    return total;
  }

  double exact(const bitvec& congested_set, const bitvec& good_set) const {
    double total = 0.0;
    for (std::size_t mask = 0; mask < state_prob_.size(); ++mask) {
      bool match = true;
      congested_set.for_each([&](std::size_t e) {
        if (!(mask & (std::size_t{1} << e))) match = false;
      });
      good_set.for_each([&](std::size_t e) {
        if (mask & (std::size_t{1} << e)) match = false;
      });
      if (match) total += state_prob_[mask];
    }
    return total;
  }

  std::size_t k() const { return k_; }

 private:
  std::vector<double> state_prob_;
  std::size_t k_ = 0;
};

good_probability_fn to_fn(const joint_distribution& d) {
  return [&d](const bitvec& b) -> std::optional<double> { return d.good(b); };
}

TEST(SetCongestionTest, SingleLink) {
  // P(congested) = 0.3.
  joint_distribution d({0.7, 0.3});
  bitvec set(1);
  set.set(0);
  const auto p = set_congestion_probability(set, to_fn(d));
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 0.3, 1e-12);
}

TEST(SetCongestionTest, EmptySetIsOne) {
  joint_distribution d({0.7, 0.3});
  const auto p = set_congestion_probability(bitvec(1), to_fn(d));
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 1.0);
}

TEST(SetCongestionTest, PerfectlyCorrelatedPair) {
  // Both good w.p. 0.8, both congested w.p. 0.2.
  joint_distribution d({0.8, 0.0, 0.0, 0.2});
  bitvec both(2);
  both.set(0);
  both.set(1);
  const auto p = set_congestion_probability(both, to_fn(d));
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 0.2, 1e-12);
}

TEST(SetCongestionTest, MissingGReturnsNullopt) {
  const good_probability_fn g = [](const bitvec&) -> std::optional<double> {
    return std::nullopt;
  };
  bitvec set(2);
  set.set(0);
  EXPECT_FALSE(set_congestion_probability(set, g).has_value());
}

TEST(ExactStateTest, TwoLinkStates) {
  // Independent links: p0 = 0.3, p1 = 0.5.
  // state_prob[mask] with bit0 = link0 congested.
  joint_distribution d({0.7 * 0.5, 0.3 * 0.5, 0.7 * 0.5, 0.3 * 0.5});
  bitvec congested(2), good(2);
  congested.set(0);
  good.set(1);
  const auto p = exact_state_probability(congested, good, to_fn(d));
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 0.3 * 0.5, 1e-12);
}

// Property: inclusion-exclusion reproduces the direct computation for
// random joint distributions of up to 5 links.
class JointPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JointPropertyTest, InclusionExclusionMatchesDirect) {
  rng r(GetParam());
  const std::size_t k = 1 + r.uniform_index(5);
  std::vector<double> probs(std::size_t{1} << k);
  double total = 0.0;
  for (auto& p : probs) {
    p = r.uniform();
    total += p;
  }
  for (auto& p : probs) p /= total;
  const joint_distribution d(probs);

  // Random subsets S and disjoint R.
  for (int trial = 0; trial < 10; ++trial) {
    bitvec s(k), rr(k);
    for (std::size_t i = 0; i < k; ++i) {
      const double u = r.uniform();
      if (u < 0.4) {
        s.set(i);
      } else if (u < 0.7) {
        rr.set(i);
      }
    }
    const auto via_ie = set_congestion_probability(s, to_fn(d));
    ASSERT_TRUE(via_ie.has_value());
    EXPECT_NEAR(*via_ie, d.congested(s), 1e-10);

    const auto state_ie = exact_state_probability(s, rr, to_fn(d));
    ASSERT_TRUE(state_ie.has_value());
    EXPECT_NEAR(*state_ie, d.exact(s, rr), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, JointPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

/// g of independent links, each congested with probability `p`:
/// g(B) = (1 - p)^|B|. Counts its calls in `calls`.
good_probability_fn independent_links(double p, std::size_t& calls) {
  return [p, &calls](const bitvec& b) -> std::optional<double> {
    ++calls;
    return std::pow(1.0 - p, static_cast<double>(b.count()));
  };
}

bitvec first_links(std::size_t universe, std::size_t members) {
  bitvec set(universe);
  for (std::size_t i = 0; i < members; ++i) set.set(i);
  return set;
}

TEST(JointMemberCapTest, AtTheCapEnumeratesEverySubset) {
  std::size_t calls = 0;
  const bitvec set = first_links(80, max_joint_members);
  const auto p = set_congestion_probability(set, independent_links(0.5, calls));
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, std::pow(0.5, static_cast<double>(max_joint_members)),
              1e-12);
  // Every nonempty subset once; g(∅) = 1 is not asked for.
  EXPECT_EQ(calls, (std::size_t{1} << max_joint_members) - 1);
}

TEST(JointMemberCapTest, OverTheCapIsNulloptWithoutEvaluating) {
  // One over the cap, and 65 members: past the 64-entry member buffer
  // and the width of a 64-bit mask shift the enumeration once had.
  for (const std::size_t members : {max_joint_members + 1, std::size_t{65}}) {
    std::size_t calls = 0;
    const bitvec set = first_links(80, members);
    EXPECT_FALSE(
        set_congestion_probability(set, independent_links(0.5, calls)))
        << members;
    EXPECT_FALSE(exact_state_probability(set, bitvec(80),
                                         independent_links(0.5, calls)))
        << members;
    EXPECT_EQ(calls, 0u) << members;
  }
}

TEST(JointMemberCapTest, CapCountsOnlyTheCongestedSet) {
  // The good set R joins every term but is not enumerated.
  std::size_t calls = 0;
  const bitvec congested = first_links(80, 2);
  bitvec good(80);
  for (std::size_t i = 10; i < 10 + 2 * max_joint_members; ++i) good.set(i);
  const auto p =
      exact_state_probability(congested, good, independent_links(0.5, calls));
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, std::pow(0.5, 2.0 + 2.0 * max_joint_members), 1e-12);
  EXPECT_EQ(calls, 4u);  // B ∪ R for each of the 4 subsets B.
}

}  // namespace
}  // namespace ntom

#include "ntom/corr/subsets.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using namespace topogen;

bitvec all_links(const topology& t) {
  bitvec b(t.num_links());
  for (link_id e = 0; e < t.num_links(); ++e) b.set(e);
  return b;
}

/// AS a's family as subset_catalog::build documents it, by linear
/// search: the base family in path order, then the capped union
/// closure walking the family in discovery order, then sorted by size
/// and link indices.
std::vector<bitvec> insertion_order_family(const topology& t, as_id a,
                                           const bitvec& potcong,
                                           const subset_limits& limits) {
  bitvec members = t.links_in_as(a);
  members &= potcong;
  std::vector<bitvec> family;
  const auto full = [&] {
    return family.size() >= limits.max_subsets_per_as;
  };
  const auto add = [&](const bitvec& s) {
    if (s.empty() || s.count() > limits.max_subset_size) return;
    if (std::find(family.begin(), family.end(), s) == family.end()) {
      family.push_back(s);
    }
  };
  for (path_id p = 0; p < t.num_paths() && !full(); ++p) {
    add(t.get_path(p).link_set() & members);
  }
  for (std::size_t next = 0; next < family.size() && !full(); ++next) {
    const std::size_t known = family.size();
    for (std::size_t i = 0; i < known && !full(); ++i) {
      add(family[next] | family[i]);
    }
  }
  std::sort(family.begin(), family.end(),
            [](const bitvec& x, const bitvec& y) {
              if (x.count() != y.count()) return x.count() < y.count();
              return x.to_indices() < y.to_indices();
            });
  return family;
}

TEST(SubsetCatalogTest, ToyCase1Family) {
  // §5.2: the possible correlation subsets in Case 1 are
  // {e1}, {e2}, {e3}, {e4}, {e2,e3}.
  const topology t = make_toy(toy_case::case1);
  const subset_catalog cat = subset_catalog::build(t, all_links(t));
  EXPECT_EQ(cat.size(), 5u);

  bitvec e23(t.num_links());
  e23.set(toy_e2);
  e23.set(toy_e3);
  EXPECT_NE(cat.find(e23), subset_catalog::npos);
  for (link_id e = 0; e < 4; ++e) {
    EXPECT_NE(cat.singleton_of(e), subset_catalog::npos) << "link " << e;
  }
}

TEST(SubsetCatalogTest, ToyCase2Family) {
  // Case 2 additionally has {e1,e4} (same correlation set).
  const topology t = make_toy(toy_case::case2);
  const subset_catalog cat = subset_catalog::build(t, all_links(t));
  EXPECT_EQ(cat.size(), 6u);
  bitvec e14(t.num_links());
  e14.set(toy_e1);
  e14.set(toy_e4);
  EXPECT_NE(cat.find(e14), subset_catalog::npos);
}

TEST(SubsetCatalogTest, SubsetAsMatchesMembers) {
  const topology t = make_toy(toy_case::case1);
  const subset_catalog cat = subset_catalog::build(t, all_links(t));
  for (std::size_t i = 0; i < cat.size(); ++i) {
    cat.subset(i).for_each([&](std::size_t e) {
      EXPECT_EQ(t.link(static_cast<link_id>(e)).as_number, cat.subset_as(i));
    });
  }
}

TEST(SubsetCatalogTest, PotcongRestrictionShrinksFamily) {
  const topology t = make_toy(toy_case::case1);
  bitvec potcong(t.num_links());
  potcong.set(toy_e1);
  potcong.set(toy_e2);
  const subset_catalog cat = subset_catalog::build(t, potcong);
  // Only {e1} and {e2} remain.
  EXPECT_EQ(cat.size(), 2u);
  EXPECT_EQ(cat.singleton_of(toy_e3), subset_catalog::npos);
}

TEST(SubsetCatalogTest, SizeCapExcludesLargeUnions) {
  const topology t = make_toy(toy_case::case1);
  subset_limits limits;
  limits.max_subset_size = 1;
  const subset_catalog cat = subset_catalog::build(t, all_links(t), limits);
  for (std::size_t i = 0; i < cat.size(); ++i) {
    EXPECT_EQ(cat.subset(i).count(), 1u);
  }
  // Per-path intersections of size 2 ({e2,e3} is only reachable via
  // unions) — singles survive.
  EXPECT_EQ(cat.size(), 4u);
}

TEST(SubsetCatalogTest, PerAsCountCap) {
  const topology t = make_toy(toy_case::case1);
  subset_limits limits;
  limits.max_subsets_per_as = 1;
  const subset_catalog cat = subset_catalog::build(t, all_links(t), limits);
  // At most one subset per AS survives.
  EXPECT_LE(cat.size(), t.num_ases());
}

TEST(SubsetCatalogTest, DeterministicOrder) {
  const topology t = make_toy(toy_case::case2);
  const subset_catalog a = subset_catalog::build(t, all_links(t));
  const subset_catalog b = subset_catalog::build(t, all_links(t));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.subset(i), b.subset(i));
  }
}

TEST(SubsetCatalogTest, FindMissingReturnsNpos) {
  const topology t = make_toy(toy_case::case1);
  const subset_catalog cat = subset_catalog::build(t, all_links(t));
  bitvec e12(t.num_links());
  e12.set(toy_e1);
  e12.set(toy_e2);
  // {e1,e2} spans two correlation sets — never a correlation subset.
  EXPECT_EQ(cat.find(e12), subset_catalog::npos);
}

TEST(SubsetCatalogTest, SingletonIndicesConsistent) {
  const topology t = make_toy(toy_case::case1);
  const subset_catalog cat = subset_catalog::build(t, all_links(t));
  for (const std::size_t i : cat.singleton_indices()) {
    EXPECT_EQ(cat.subset(i).count(), 1u);
    const auto e = static_cast<link_id>(cat.subset(i).to_indices().front());
    EXPECT_EQ(cat.singleton_of(e), i);
  }
}

TEST(SubsetCatalogTest, CappedFamilyFollowsPathOrder) {
  // One AS of 12 links; paths over each link alone and over each pair
  // of neighbours. Unions of at most 4 links number far more than the
  // cap of 96, so the cap decides which subsets survive, and those must
  // depend only on path order.
  constexpr std::size_t links = 12;
  topology t(links);
  for (std::size_t e = 0; e < links; ++e) {
    link_info info;
    info.router_links = {static_cast<router_link_id>(e)};
    t.add_link(info);
  }
  for (link_id e = 0; e < links; ++e) t.add_path({e});
  for (link_id e = 0; e + 1 < links; ++e) t.add_path({e, e + 1});
  t.finalize();

  const subset_limits limits;
  const subset_catalog cat = subset_catalog::build(t, all_links(t), limits);
  const std::vector<bitvec> expected =
      insertion_order_family(t, 0, all_links(t), limits);
  ASSERT_EQ(expected.size(), limits.max_subsets_per_as);
  ASSERT_EQ(cat.size(), expected.size());
  for (std::size_t i = 0; i < cat.size(); ++i) {
    EXPECT_EQ(cat.subset(i), expected[i])
        << i << ": " << cat.subset(i).to_string() << " vs "
        << expected[i].to_string();
  }
}

}  // namespace
}  // namespace ntom

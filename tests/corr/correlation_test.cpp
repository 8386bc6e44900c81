#include "ntom/corr/correlation.hpp"

#include <gtest/gtest.h>

#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using namespace topogen;

TEST(PotentiallyCongestedTest, PaperExample) {
  // §5.2: if p3 is always good, e3 and e4 are always good, so the
  // potentially congested links are {e1, e2}.
  const topology t = make_toy(toy_case::case1);
  bitvec always_good(t.num_paths());
  always_good.set(toy_p3);
  const bitvec potcong = potentially_congested_links(t, always_good);
  EXPECT_EQ(potcong.to_indices(), (std::vector<std::size_t>{toy_e1, toy_e2}));
}

TEST(PotentiallyCongestedTest, NoAlwaysGoodPaths) {
  const topology t = make_toy(toy_case::case1);
  const bitvec none(t.num_paths());
  const bitvec potcong = potentially_congested_links(t, none);
  EXPECT_EQ(potcong.count(), 4u);
}

TEST(PotentiallyCongestedTest, AllPathsAlwaysGood) {
  const topology t = make_toy(toy_case::case1);
  bitvec all(t.num_paths());
  for (path_id p = 0; p < t.num_paths(); ++p) all.set(p);
  EXPECT_TRUE(potentially_congested_links(t, all).empty());
}

TEST(PotentiallyCongestedTest, UncoveredLinksNeverQualify) {
  topology t(2);
  t.add_link({.as_number = 0, .router_links = {0}, .edge = false});
  t.add_link({.as_number = 0, .router_links = {1}, .edge = false});  // no path
  t.add_path({0});
  t.finalize();
  const bitvec none(t.num_paths());
  const bitvec potcong = potentially_congested_links(t, none);
  EXPECT_TRUE(potcong.test(0));
  EXPECT_FALSE(potcong.test(1));
}

TEST(CorrelationSetOfTest, RestrictedToPotcong) {
  const topology t = make_toy(toy_case::case1);
  bitvec potcong(t.num_links());
  potcong.set(toy_e2);  // e3 not potentially congested.
  // C(e2) ∩ potcong: the complement of the empty subset in e2's AS.
  const bitvec cset = subset_complement(t, bitvec(t.num_links()),
                                        t.link(toy_e2).as_number, potcong);
  EXPECT_EQ(cset.to_indices(), (std::vector<std::size_t>{toy_e2}));
}

TEST(SubsetComplementTest, PaperExamples) {
  // §5.2 (Case 1, all potentially congested): complement of {e2} is
  // {e3}, of {e2,e3} is ∅, of {e1} is ∅.
  const topology t = make_toy(toy_case::case1);
  bitvec potcong(t.num_links());
  for (link_id e = 0; e < 4; ++e) potcong.set(e);

  bitvec e2(t.num_links());
  e2.set(toy_e2);
  EXPECT_EQ(subset_complement(t, e2, 1, potcong).to_indices(),
            (std::vector<std::size_t>{toy_e3}));

  bitvec e23(t.num_links());
  e23.set(toy_e2);
  e23.set(toy_e3);
  EXPECT_TRUE(subset_complement(t, e23, 1, potcong).empty());

  bitvec e1(t.num_links());
  e1.set(toy_e1);
  EXPECT_TRUE(subset_complement(t, e1, 0, potcong).empty());
}

TEST(SubsetComplementTest, AlwaysGoodLinksExcluded) {
  const topology t = make_toy(toy_case::case1);
  bitvec potcong(t.num_links());
  potcong.set(toy_e2);  // e3 is always good.
  bitvec e2(t.num_links());
  e2.set(toy_e2);
  // Complement within potcong must not contain the always-good e3.
  EXPECT_TRUE(subset_complement(t, e2, 1, potcong).empty());
}

}  // namespace
}  // namespace ntom

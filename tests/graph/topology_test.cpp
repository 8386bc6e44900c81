#include "ntom/graph/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using topogen::make_toy;
using topogen::toy_case;
using topogen::toy_e1;
using topogen::toy_e2;
using topogen::toy_e3;
using topogen::toy_e4;
using topogen::toy_p1;
using topogen::toy_p2;
using topogen::toy_p3;

/// True if links a and b ride on a common router-level link (are
/// structurally correlated).
bool share_router_link(const topology& t, link_id a, link_id b) {
  const auto& rb = t.link(b).router_links;
  for (const router_link_id r : t.link(a).router_links) {
    if (std::find(rb.begin(), rb.end(), r) != rb.end()) return true;
  }
  return false;
}

TEST(TopologyTest, ToyDimensions) {
  const topology t = make_toy(toy_case::case1);
  EXPECT_TRUE(t.finalized());
  EXPECT_EQ(t.num_links(), 4u);
  EXPECT_EQ(t.num_paths(), 3u);
  EXPECT_EQ(t.num_ases(), 3u);
}

TEST(TopologyTest, PathsThroughLink) {
  const topology t = make_toy(toy_case::case1);
  EXPECT_EQ(t.paths_through(toy_e1).to_indices(),
            (std::vector<std::size_t>{toy_p1, toy_p2}));
  EXPECT_EQ(t.paths_through(toy_e2).to_indices(),
            (std::vector<std::size_t>{toy_p1}));
  EXPECT_EQ(t.paths_through(toy_e3).to_indices(),
            (std::vector<std::size_t>{toy_p2, toy_p3}));
  EXPECT_EQ(t.paths_through(toy_e4).to_indices(),
            (std::vector<std::size_t>{toy_p3}));
}

TEST(TopologyTest, PathCoverageFunctionMatchesPaper) {
  // §5.2: Paths({e1,e2}) = {p1,p2}, Paths({e1,e3}) = {p1,p2,p3}.
  const topology t = make_toy(toy_case::case1);
  bitvec e12(t.num_links());
  e12.set(toy_e1);
  e12.set(toy_e2);
  EXPECT_EQ(t.paths_of_links(e12).to_indices(),
            (std::vector<std::size_t>{toy_p1, toy_p2}));

  bitvec e13(t.num_links());
  e13.set(toy_e1);
  e13.set(toy_e3);
  EXPECT_EQ(t.paths_of_links(e13).to_indices(),
            (std::vector<std::size_t>{toy_p1, toy_p2, toy_p3}));
}

TEST(TopologyTest, LinkCoverageFunctionMatchesPaper) {
  // §5.2: Links({p1}) = {e1,e2}, Links({p1,p2}) = {e1,e2,e3}.
  const topology t = make_toy(toy_case::case1);
  bitvec p1(t.num_paths());
  p1.set(toy_p1);
  EXPECT_EQ(t.links_of_paths(p1).to_indices(),
            (std::vector<std::size_t>{toy_e1, toy_e2}));

  bitvec p12(t.num_paths());
  p12.set(toy_p1);
  p12.set(toy_p2);
  EXPECT_EQ(t.links_of_paths(p12).to_indices(),
            (std::vector<std::size_t>{toy_e1, toy_e2, toy_e3}));
}

TEST(TopologyTest, CorrelationSetsPerAs) {
  const topology t = make_toy(toy_case::case1);
  EXPECT_EQ(t.links_in_as(0).to_indices(), (std::vector<std::size_t>{toy_e1}));
  EXPECT_EQ(t.links_in_as(1).to_indices(),
            (std::vector<std::size_t>{toy_e2, toy_e3}));
  EXPECT_EQ(t.links_in_as(2).to_indices(), (std::vector<std::size_t>{toy_e4}));

  const topology t2 = make_toy(toy_case::case2);
  EXPECT_EQ(t2.links_in_as(0).to_indices(),
            (std::vector<std::size_t>{toy_e1, toy_e4}));
  EXPECT_EQ(t2.links_in_as(1).to_indices(),
            (std::vector<std::size_t>{toy_e2, toy_e3}));
}

TEST(TopologyTest, AllToyLinksCovered) {
  const topology t = make_toy(toy_case::case1);
  EXPECT_EQ(t.covered_links().count(), 4u);
}

TEST(TopologyTest, RouterLinkSharingDefinesCorrelation) {
  const topology t = make_toy(toy_case::case1);
  EXPECT_TRUE(share_router_link(t, toy_e2, toy_e3));
  EXPECT_FALSE(share_router_link(t, toy_e1, toy_e2));
  EXPECT_FALSE(share_router_link(t, toy_e1, toy_e4));

  const topology t2 = make_toy(toy_case::case2);
  EXPECT_TRUE(share_router_link(t2, toy_e1, toy_e4));
  EXPECT_TRUE(share_router_link(t2, toy_e2, toy_e3));
}

TEST(TopologyTest, LinksOnRouterLinkIndex) {
  const topology t = make_toy(toy_case::case1);
  // Router link 4 is shared by e2 and e3 in Case 1.
  const auto& users = t.links_on_router_link(4);
  EXPECT_EQ(users, (std::vector<link_id>{toy_e2, toy_e3}));
  // Private router link 0 belongs to e1 only.
  EXPECT_EQ(t.links_on_router_link(0), (std::vector<link_id>{toy_e1}));
}

TEST(TopologyTest, UncoveredLinkExcluded) {
  topology t(2);
  t.add_link({.as_number = 0, .router_links = {0}, .edge = false});
  t.add_link({.as_number = 0, .router_links = {1}, .edge = false});
  t.add_path({0});
  t.finalize();
  EXPECT_TRUE(t.covered_links().test(0));
  EXPECT_FALSE(t.covered_links().test(1));
}

TEST(TopologyTest, DescribeMentionsDimensions) {
  const topology t = make_toy(toy_case::case1);
  const std::string s = t.describe();
  EXPECT_NE(s.find("|E*|=4"), std::string::npos);
  EXPECT_NE(s.find("|P*|=3"), std::string::npos);
}

TEST(PathTest, LengthAndMembership) {
  const topology t = make_toy(toy_case::case1);
  const path& p1 = t.get_path(toy_p1);
  EXPECT_EQ(p1.length(), 2u);
  EXPECT_TRUE(p1.link_set().test(toy_e1));
  EXPECT_TRUE(p1.link_set().test(toy_e2));
  EXPECT_FALSE(p1.link_set().test(toy_e3));
}

}  // namespace
}  // namespace ntom

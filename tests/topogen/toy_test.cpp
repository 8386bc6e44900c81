#include "ntom/topogen/toy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace ntom {
namespace {

using namespace topogen;

/// True if links a and b ride on a common router-level link (are
/// structurally correlated).
bool share_router_link(const topology& t, link_id a, link_id b) {
  const auto& rb = t.link(b).router_links;
  for (const router_link_id r : t.link(a).router_links) {
    if (std::find(rb.begin(), rb.end(), r) != rb.end()) return true;
  }
  return false;
}

TEST(ToyTest, PathsMatchFigure1) {
  const topology t = make_toy(toy_case::case1);
  EXPECT_EQ(t.get_path(toy_p1).links(), (std::vector<link_id>{toy_e1, toy_e2}));
  EXPECT_EQ(t.get_path(toy_p2).links(), (std::vector<link_id>{toy_e1, toy_e3}));
  EXPECT_EQ(t.get_path(toy_p3).links(), (std::vector<link_id>{toy_e3, toy_e4}));
}

TEST(ToyTest, Case1CorrelationSets) {
  const topology t = make_toy(toy_case::case1);
  EXPECT_EQ(t.link(toy_e1).as_number, 0u);
  EXPECT_EQ(t.link(toy_e2).as_number, 1u);
  EXPECT_EQ(t.link(toy_e3).as_number, 1u);
  EXPECT_EQ(t.link(toy_e4).as_number, 2u);
}

TEST(ToyTest, Case2CorrelationSets) {
  const topology t = make_toy(toy_case::case2);
  EXPECT_EQ(t.link(toy_e1).as_number, t.link(toy_e4).as_number);
  EXPECT_EQ(t.link(toy_e2).as_number, t.link(toy_e3).as_number);
  EXPECT_NE(t.link(toy_e1).as_number, t.link(toy_e2).as_number);
}

TEST(ToyTest, SharedRouterLinksEncodeCorrelation) {
  const topology c1 = make_toy(toy_case::case1);
  EXPECT_TRUE(share_router_link(c1, toy_e2, toy_e3));
  EXPECT_FALSE(share_router_link(c1, toy_e1, toy_e4));

  const topology c2 = make_toy(toy_case::case2);
  EXPECT_TRUE(share_router_link(c2, toy_e2, toy_e3));
  EXPECT_TRUE(share_router_link(c2, toy_e1, toy_e4));
}

TEST(ToyTest, PathsAreIdenticalAcrossCases) {
  const topology c1 = make_toy(toy_case::case1);
  const topology c2 = make_toy(toy_case::case2);
  ASSERT_EQ(c1.num_paths(), c2.num_paths());
  for (path_id p = 0; p < c1.num_paths(); ++p) {
    EXPECT_EQ(c1.get_path(p).links(), c2.get_path(p).links());
  }
}

TEST(ToyTest, EveryLinkMarkedEdge) {
  // All toy links touch an end-host in Fig. 1.
  const topology t = make_toy(toy_case::case1);
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_TRUE(t.link(e).edge);
  }
}

}  // namespace
}  // namespace ntom

#include "ntom/topogen/project.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "topology_checks.hpp"

namespace ntom {
namespace {

using testing_checks::paths_well_formed;
using topogen::project_to_as_level;
using topogen::router_network;

/// Two ASes, two routers each, one inter-domain link, a host on each
/// side:  h0 - r0 - r1 - [AS boundary] - r2 - r3 - h1.
router_network make_line_network() {
  router_network net;
  for (int i = 0; i < 4; ++i) {
    net.graph.add_vertex();
    net.router_as.push_back(i < 2 ? 0 : 1);
    net.is_host.push_back(false);
  }
  const auto h0 = net.graph.add_vertex();
  net.router_as.push_back(0);
  net.is_host.push_back(true);
  const auto h1 = net.graph.add_vertex();
  net.router_as.push_back(1);
  net.is_host.push_back(true);

  net.graph.add_bidirectional_edge(h0, 0);
  net.graph.add_bidirectional_edge(0, 1);
  net.graph.add_bidirectional_edge(1, 2);  // inter-domain.
  net.graph.add_bidirectional_edge(2, 3);
  net.graph.add_bidirectional_edge(3, h1);
  return net;
}

/// The BFS route u -> v; every route in these networks is the only
/// shortest one, so the tie-break stream does not matter.
std::optional<std::vector<std::uint32_t>> bfs_route(
    const router_network& net, std::uint32_t u, std::uint32_t v) {
  rng tiebreak(1);
  return net.graph.shortest_path_random(u, v, tiebreak);
}

TEST(ProjectTest, LineNetworkSegments) {
  router_network net = make_line_network();
  const auto route = bfs_route(net, 4, 5);  // h0 -> h1.
  ASSERT_TRUE(route.has_value());
  const topology t = project_to_as_level(net, {*route});

  // Segments: intra-AS0 (h0->r0->r1), inter-domain (r1->r2),
  // intra-AS1 (r2->r3->h1)  => 3 AS-level links, 1 path.
  EXPECT_EQ(t.num_links(), 3u);
  EXPECT_EQ(t.num_paths(), 1u);
  EXPECT_EQ(t.get_path(0).length(), 3u);
  EXPECT_TRUE(paths_well_formed(t));
}

TEST(ProjectTest, InterDomainLinkOwnedByDownstreamAs) {
  router_network net = make_line_network();
  const auto route = bfs_route(net, 4, 5);
  const topology t = project_to_as_level(net, {*route});
  // Path link order: AS0 segment, inter-domain, AS1 segment.
  const auto& links = t.get_path(0).links();
  EXPECT_EQ(t.link(links[0]).as_number, 0u);
  EXPECT_EQ(t.link(links[1]).as_number, 1u);  // downstream AS.
  EXPECT_EQ(t.link(links[2]).as_number, 1u);
}

TEST(ProjectTest, HostAdjacentSegmentsAreEdgeLinks) {
  router_network net = make_line_network();
  const auto route = bfs_route(net, 4, 5);
  const topology t = project_to_as_level(net, {*route});
  const auto& links = t.get_path(0).links();
  EXPECT_TRUE(t.link(links[0]).edge);    // contains h0 attachment.
  EXPECT_FALSE(t.link(links[1]).edge);   // pure inter-domain.
  EXPECT_TRUE(t.link(links[2]).edge);    // contains h1 attachment.
}

TEST(ProjectTest, SharedSegmentsMergeIntoOneLink) {
  // Two hosts in AS0 reaching the same destination through the same
  // border pair: the shared AS1 segment must be a single AS-level link.
  router_network net = make_line_network();
  const auto h2 = net.graph.add_vertex();
  net.router_as.push_back(0);
  net.is_host.push_back(true);
  net.graph.add_bidirectional_edge(h2, 1);  // second vantage at r1.

  const auto route1 = bfs_route(net, 4, 5);
  const auto route2 = bfs_route(net, 6, 5);
  ASSERT_TRUE(route1 && route2);
  const topology t = project_to_as_level(net, {*route1, *route2});

  EXPECT_EQ(t.num_paths(), 2u);
  // The inter-domain link and the AS1 segment are shared; AS0 segments
  // differ (different entry routers). Expect 4 links total:
  // AS0 seg (h0..r1), AS0 seg (h2..r1), inter, AS1 seg.
  EXPECT_EQ(t.num_links(), 4u);

  // Shared links are traversed by both paths.
  std::size_t shared = 0;
  for (link_id e = 0; e < t.num_links(); ++e) {
    if (t.paths_through(e).count() == 2) ++shared;
  }
  EXPECT_EQ(shared, 2u);
}

TEST(ProjectTest, RouterLinksRecordedPerSegment) {
  router_network net = make_line_network();
  const auto route = bfs_route(net, 4, 5);
  const topology t = project_to_as_level(net, {*route});
  const auto& links = t.get_path(0).links();
  // AS0 segment rides on 2 router links (h0->r0, r0->r1).
  EXPECT_EQ(t.link(links[0]).router_links.size(), 2u);
  // Inter-domain link rides on exactly its crossing edge.
  EXPECT_EQ(t.link(links[1]).router_links.size(), 1u);
  EXPECT_EQ(t.link(links[2]).router_links.size(), 2u);
}

TEST(ProjectTest, EmptyPathsSkipped) {
  router_network net = make_line_network();
  const topology t = project_to_as_level(net, {{}});
  EXPECT_EQ(t.num_paths(), 0u);
  EXPECT_EQ(t.num_links(), 0u);
}

TEST(ProjectTest, SingleAsPathYieldsOneLink) {
  router_network net = make_line_network();
  const auto route = bfs_route(net, 4, 1);  // h0 -> r1, all AS0.
  ASSERT_TRUE(route.has_value());
  const topology t = project_to_as_level(net, {*route});
  EXPECT_EQ(t.num_links(), 1u);
  EXPECT_EQ(t.get_path(0).length(), 1u);
  EXPECT_EQ(t.link(0).as_number, 0u);
}

}  // namespace
}  // namespace ntom

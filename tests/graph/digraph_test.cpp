#include "ntom/graph/digraph.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace ntom {
namespace {

/// BFS route u -> v; ties broken by a fixed-seed stream.
std::optional<std::vector<std::uint32_t>> route(const digraph& g,
                                                std::uint32_t u,
                                                std::uint32_t v) {
  rng tiebreak(3);
  return g.shortest_path_random(u, v, tiebreak);
}

TEST(DigraphTest, AddVerticesAndEdges) {
  digraph g(3);
  EXPECT_EQ(g.vertex_count(), 3u);
  const auto e0 = g.add_edge(0, 1);
  const auto e1 = g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge(e0).from, 0u);
  EXPECT_EQ(g.edge(e0).to, 1u);
  EXPECT_EQ(g.edge(e1).to, 2u);
}

TEST(DigraphTest, AddVertexGrows) {
  digraph g;
  EXPECT_EQ(g.add_vertex(), 0u);
  EXPECT_EQ(g.add_vertex(), 1u);
  EXPECT_EQ(g.vertex_count(), 2u);
}

TEST(DigraphTest, BidirectionalEdgeIds) {
  digraph g(2);
  const auto forward = g.add_bidirectional_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge(forward).from, 0u);
  EXPECT_EQ(g.edge(forward + 1).from, 1u);  // reverse edge is next id.
}

TEST(DigraphTest, HasEdgeIsDirectional) {
  digraph g(2);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(DigraphTest, OutEdgesAndDegree) {
  digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  for (std::uint32_t v = 0; v < 3; ++v) EXPECT_FALSE(g.has_edge(1, v));
}

TEST(DigraphTest, ShortestPathTrivial) {
  digraph g(2);
  const auto path = route(g, 0, 0);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->empty());
}

TEST(DigraphTest, ShortestPathLine) {
  digraph g(4);
  const auto e01 = g.add_edge(0, 1);
  const auto e12 = g.add_edge(1, 2);
  const auto e23 = g.add_edge(2, 3);
  const auto path = route(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<std::uint32_t>{e01, e12, e23}));
}

TEST(DigraphTest, ShortestPathPrefersFewerHops) {
  digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto direct = g.add_edge(0, 3);
  const auto path = route(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<std::uint32_t>{direct}));
}

TEST(DigraphTest, ShortestPathUnreachable) {
  digraph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(route(g, 0, 2).has_value());
  // Directionality matters.
  EXPECT_FALSE(route(g, 1, 0).has_value());
}

TEST(DigraphTest, ReachableFrom) {
  // A route exists exactly to the vertices reachable from the source.
  digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  for (const std::uint32_t v : {0u, 1u, 2u}) {
    EXPECT_TRUE(route(g, 0, v).has_value()) << v;
  }
  EXPECT_FALSE(route(g, 0, 3).has_value());
}

TEST(DigraphTest, EdgePathVertices) {
  // A route's edges visit its vertices in order.
  digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto path = route(g, 0, 2);
  ASSERT_TRUE(path.has_value());
  std::vector<std::uint32_t> vertices{g.edge(path->front()).from};
  for (const auto id : *path) vertices.push_back(g.edge(id).to);
  EXPECT_EQ(vertices, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(DigraphTest, ShortestPathEdgesAreConsistent) {
  // Two 3-hop routes tie; whichever the tie-break picks, the returned
  // edge ids must chain: to(e_i) == from(e_{i+1}).
  digraph g(6);
  g.add_bidirectional_edge(0, 1);
  g.add_bidirectional_edge(1, 2);
  g.add_bidirectional_edge(2, 5);
  g.add_bidirectional_edge(0, 3);
  g.add_bidirectional_edge(3, 4);
  g.add_bidirectional_edge(4, 5);
  const auto path = route(g, 0, 5);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 3u);
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_EQ(g.edge((*path)[i]).to, g.edge((*path)[i + 1]).from);
  }
  EXPECT_EQ(g.edge(path->front()).from, 0u);
  EXPECT_EQ(g.edge(path->back()).to, 5u);
}

}  // namespace
}  // namespace ntom

#include "ntom/graph/digraph.hpp"

#include <cassert>
#include <deque>

namespace ntom {

digraph::digraph(std::size_t vertex_count) : adjacency_(vertex_count) {}

std::uint32_t digraph::add_vertex() {
  adjacency_.emplace_back();
  return static_cast<std::uint32_t>(adjacency_.size() - 1);
}

std::uint32_t digraph::add_edge(std::uint32_t u, std::uint32_t v) {
  assert(u < adjacency_.size() && v < adjacency_.size());
  const auto id = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back({u, v});
  adjacency_[u].push_back({v, id});
  return id;
}

std::uint32_t digraph::add_bidirectional_edge(std::uint32_t u, std::uint32_t v) {
  const std::uint32_t forward = add_edge(u, v);
  add_edge(v, u);
  return forward;
}

bool digraph::has_edge(std::uint32_t u, std::uint32_t v) const noexcept {
  for (const auto& oe : adjacency_[u]) {
    if (oe.to == v) return true;
  }
  return false;
}

std::optional<std::vector<std::uint32_t>> digraph::shortest_path_random(
    std::uint32_t u, std::uint32_t v, rng& tiebreak) const {
  assert(u < adjacency_.size() && v < adjacency_.size());
  if (u == v) return std::vector<std::uint32_t>{};

  constexpr std::uint32_t unset = 0xffffffffu;
  std::vector<std::uint32_t> parent_edge(adjacency_.size(), unset);
  std::vector<bool> visited(adjacency_.size(), false);
  std::deque<std::uint32_t> queue{u};
  visited[u] = true;

  std::vector<out_edge> shuffled;
  while (!queue.empty()) {
    const std::uint32_t cur = queue.front();
    queue.pop_front();
    // Randomize the expansion order so equal-depth parents are chosen
    // uniformly; BFS level order (hence shortest paths) is unaffected.
    shuffled = adjacency_[cur];
    tiebreak.shuffle(shuffled);
    for (const auto& oe : shuffled) {
      if (visited[oe.to]) continue;
      visited[oe.to] = true;
      parent_edge[oe.to] = oe.edge_id;
      if (oe.to == v) {
        std::vector<std::uint32_t> path;
        std::uint32_t at = v;
        while (at != u) {
          const std::uint32_t eid = parent_edge[at];
          path.push_back(eid);
          at = edges_[eid].from;
        }
        return std::vector<std::uint32_t>(path.rbegin(), path.rend());
      }
      queue.push_back(oe.to);
    }
  }
  return std::nullopt;
}

}  // namespace ntom

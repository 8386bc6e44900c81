// Directed graph used by the topology generators for the router-level
// substrate: adjacency storage and BFS shortest paths with randomized
// tie-breaking. AS-level structures live in topology.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ntom/util/rng.hpp"

namespace ntom {

/// A directed edge (u -> v); edges carry an id equal to their insertion
/// order so higher layers can attach attributes by index.
struct digraph_edge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

/// Growable directed graph with O(1) amortized edge insertion and
/// per-vertex out-adjacency.
class digraph {
 public:
  digraph() = default;
  explicit digraph(std::size_t vertex_count);

  /// Adds a vertex, returns its id.
  std::uint32_t add_vertex();

  /// Adds edge u -> v, returns its edge id. Vertices must exist.
  std::uint32_t add_edge(std::uint32_t u, std::uint32_t v);

  /// Adds u -> v and v -> u; returns the id of the u -> v edge
  /// (the reverse edge is the next id).
  std::uint32_t add_bidirectional_edge(std::uint32_t u, std::uint32_t v);

  [[nodiscard]] std::size_t vertex_count() const noexcept { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  [[nodiscard]] const digraph_edge& edge(std::uint32_t id) const noexcept {
    return edges_[id];
  }

  /// True if there is already an edge u -> v (linear in out-degree).
  [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) const noexcept;

  /// BFS shortest path u -> v as the sequence of edge ids; std::nullopt
  /// if v is unreachable. Ties between equal-length routes are broken
  /// pseudo-randomly using `tiebreak`, which the topology generators
  /// use to spread paths across parallel links (ECMP-style load
  /// balancing); the returned path is always a shortest path.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> shortest_path_random(
      std::uint32_t u, std::uint32_t v, rng& tiebreak) const;

 private:
  /// Outgoing (neighbor, edge id) pair.
  struct out_edge {
    std::uint32_t to = 0;
    std::uint32_t edge_id = 0;
  };

  std::vector<digraph_edge> edges_;
  std::vector<std::vector<out_edge>> adjacency_;
};

}  // namespace ntom

// The monitored network: AS-level links over a router-level substrate.
//
// This mirrors the paper's measurement setup (§3.2): the source ISP sees
// an AS-level graph (one correlation set per AS), while congestion is
// driven at the router level — every AS-level link knows the set of
// router-level links it rides on, and two AS-level links that share a
// router-level link become congested together. The coverage functions
// Paths(E) and Links(P) of §5.2 are provided here as indexed bit-set
// operations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ntom/graph/path.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom {

using as_id = std::uint32_t;
using router_link_id = std::uint32_t;

/// Attributes of one AS-level link.
struct link_info {
  as_id as_number = 0;  ///< correlation set: the AS this link belongs to.
  std::vector<router_link_id> router_links;  ///< underlying substrate links.
  bool edge = false;  ///< adjacent to an end-host (Concentrated scenario).
};

/// Immutable-after-build network topology: links E*, paths P*, the
/// link->AS map that defines correlation sets, and the link->router-link
/// map that defines the true correlation structure.
class topology {
 public:
  topology() = default;

  /// Declares the router-level substrate size (ids 0..n-1).
  explicit topology(std::size_t router_link_count);

  /// Adds an AS-level link; returns its id. Must be called before
  /// finalize().
  link_id add_link(link_info info);

  /// Adds a monitored path over existing links; returns its id.
  /// Must be called before finalize().
  path_id add_path(std::vector<link_id> links);

  /// Freezes the topology and builds the coverage indexes. Must be
  /// called exactly once; accessors below require a finalized topology.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] std::size_t num_links() const noexcept { return links_.size(); }
  [[nodiscard]] std::size_t num_paths() const noexcept { return paths_.size(); }
  [[nodiscard]] std::size_t num_router_links() const noexcept {
    return router_link_count_;
  }
  [[nodiscard]] std::size_t num_ases() const noexcept { return as_count_; }

  [[nodiscard]] const link_info& link(link_id e) const noexcept {
    return links_[e];
  }
  [[nodiscard]] const path& get_path(path_id p) const noexcept {
    return paths_[p];
  }
  [[nodiscard]] const std::vector<path>& paths() const noexcept {
    return paths_;
  }

  /// Bit-set of paths that traverse link e (Paths({e})).
  [[nodiscard]] const bitvec& paths_through(link_id e) const noexcept {
    return paths_through_link_[e];
  }

  /// Paths(E): paths traversing at least one link in `links` (§5.2).
  [[nodiscard]] bitvec paths_of_links(const bitvec& links) const;

  /// Links(P): links traversed by at least one path in `paths` (§5.2).
  [[nodiscard]] bitvec links_of_paths(const bitvec& paths) const;

  /// Links belonging to AS a (one correlation set per AS, §2).
  [[nodiscard]] const bitvec& links_in_as(as_id a) const noexcept {
    return links_by_as_[a];
  }

  /// Links that appear on at least one monitored path.
  [[nodiscard]] const bitvec& covered_links() const noexcept {
    return covered_links_;
  }

  /// AS-level links that ride on router-level link r.
  [[nodiscard]] const std::vector<link_id>& links_on_router_link(
      router_link_id r) const noexcept {
    return links_by_router_link_[r];
  }

  /// Summary string for logs: "|E|=…, |P|=…, ASes=…, router links=…".
  [[nodiscard]] std::string describe() const;

 private:
  std::size_t router_link_count_ = 0;
  std::size_t as_count_ = 0;
  bool finalized_ = false;
  std::vector<link_info> links_;
  std::vector<path> paths_;
  std::vector<std::vector<link_id>> pending_paths_;
  std::vector<bitvec> paths_through_link_;
  std::vector<bitvec> links_by_as_;
  std::vector<std::vector<link_id>> links_by_router_link_;
  bitvec covered_links_;
};

}  // namespace ntom

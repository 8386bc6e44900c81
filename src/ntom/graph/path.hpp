// End-to-end paths at the AS level.
//
// A path is a loop-free sequence of AS-level links from one end-host to
// another (§2 of the paper). Paths carry both the ordered link sequence
// (needed by the packet simulator) and a bit-set view (needed by the
// coverage functions and equation builders).
#pragma once

#include <cstdint>
#include <vector>

#include "ntom/util/bitvec.hpp"

namespace ntom {

using link_id = std::uint32_t;
using path_id = std::uint32_t;

/// One monitored end-to-end path.
class path {
 public:
  path() = default;

  /// `links` is the traversal order; `universe` the total link count.
  /// Requires: no link repeats (loop-freedom, checked in debug builds).
  path(std::vector<link_id> links, std::size_t universe);

  [[nodiscard]] const std::vector<link_id>& links() const noexcept {
    return links_;
  }

  /// Number of links traversed (the `d` in the f^d path threshold).
  [[nodiscard]] std::size_t length() const noexcept { return links_.size(); }

  /// Bit-set of traversed links over the link universe.
  [[nodiscard]] const bitvec& link_set() const noexcept { return link_set_; }

 private:
  std::vector<link_id> links_;
  bitvec link_set_;
};

}  // namespace ntom

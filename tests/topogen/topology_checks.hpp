// Structural checks the topology generator tests assert: every path is
// well formed, and path-intersection statistics that tell a Sparse
// topology from a Brite one (§3.2 attributes Inference failures to
// sparsity: few paths criss-cross, so the equation system has low rank).
#pragma once

#include <cstddef>

#include "ntom/graph/topology.hpp"

namespace ntom::testing_checks {

/// True if every path is non-empty, loop-free, and uses only valid link
/// ids.
[[nodiscard]] bool paths_well_formed(const topology& t);

struct sparsity_report {
  double mean_paths_per_link = 0.0;    ///< avg |Paths({e})|, covered links.
  double mean_links_per_path = 0.0;    ///< avg path length.
  double path_overlap_fraction = 0.0;  ///< path pairs sharing >= 1 link.
  std::size_t covered_links = 0;       ///< links on at least one path.
};

[[nodiscard]] sparsity_report measure_sparsity(const topology& t);

}  // namespace ntom::testing_checks

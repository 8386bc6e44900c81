#include "topology_checks.hpp"

namespace ntom::testing_checks {

bool paths_well_formed(const topology& t) {
  for (path_id p = 0; p < t.num_paths(); ++p) {
    const auto& links = t.get_path(p).links();
    if (links.empty()) return false;
    // Loop-freedom: the bit-set size must equal the sequence length.
    if (t.get_path(p).link_set().count() != links.size()) return false;
    for (const link_id e : links) {
      if (e >= t.num_links()) return false;
    }
  }
  return true;
}

sparsity_report measure_sparsity(const topology& t) {
  sparsity_report report;
  report.covered_links = t.covered_links().count();

  double paths_per_link = 0.0;
  t.covered_links().for_each([&](std::size_t e) {
    paths_per_link += static_cast<double>(
        t.paths_through(static_cast<link_id>(e)).count());
  });
  if (report.covered_links > 0) {
    report.mean_paths_per_link =
        paths_per_link / static_cast<double>(report.covered_links);
  }

  double links_per_path = 0.0;
  for (path_id p = 0; p < t.num_paths(); ++p) {
    links_per_path += static_cast<double>(t.get_path(p).length());
  }
  if (t.num_paths() > 0) {
    report.mean_links_per_path =
        links_per_path / static_cast<double>(t.num_paths());
  }

  std::size_t overlapping = 0;
  std::size_t pairs = 0;
  for (path_id a = 0; a < t.num_paths(); ++a) {
    for (path_id b = a + 1; b < t.num_paths(); ++b) {
      ++pairs;
      if (t.get_path(a).link_set().intersects(t.get_path(b).link_set())) {
        ++overlapping;
      }
    }
  }
  if (pairs > 0) {
    report.path_overlap_fraction =
        static_cast<double>(overlapping) / static_cast<double>(pairs);
  }
  return report;
}

}  // namespace ntom::testing_checks

#include "ntom/analysis/peer_report.hpp"

#include <algorithm>

namespace ntom {

std::vector<peer_summary> build_peer_report(
    const topology& t, const probability_estimates& estimates) {
  const link_estimates links = estimates.to_link_estimates();
  std::vector<peer_summary> report;
  for (as_id a = 1; a < t.num_ases(); ++a) {
    peer_summary row;
    row.peer = a;
    bitvec in_as = t.links_in_as(a);
    in_as &= t.covered_links();
    in_as.for_each([&](std::size_t e) {
      ++row.monitored_links;
      if (links.estimated.test(e)) ++row.estimated_links;
      row.mean_congestion += links.congestion[e];
      row.worst_congestion = std::max(row.worst_congestion, links.congestion[e]);
    });
    if (row.monitored_links == 0) continue;
    row.mean_congestion /= static_cast<double>(row.monitored_links);
    report.push_back(row);
  }
  std::stable_sort(report.begin(), report.end(),
                   [](const peer_summary& x, const peer_summary& y) {
                     return x.worst_congestion > y.worst_congestion;
                   });
  return report;
}

}  // namespace ntom

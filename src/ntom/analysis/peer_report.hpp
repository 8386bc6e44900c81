// Operator-facing aggregation: the paper's §1 questions, answered from
// Probability Computation output.
//
//   "how frequently is the peer congested, and how does its congestion
//    level change over the course of a day or week?"
//
// A peer report aggregates one fit's per-link congestion probabilities
// per AS and ranks peers; built from fits of successive interval
// windows, it shows how a peer's congestion changes over the day.
#pragma once

#include <vector>

#include "ntom/graph/topology.hpp"
#include "ntom/tomo/estimates.hpp"

namespace ntom {

/// One peer's congestion summary.
struct peer_summary {
  as_id peer = 0;
  std::size_t monitored_links = 0;   ///< covered links in this AS.
  std::size_t estimated_links = 0;   ///< with identifiable estimates.
  double mean_congestion = 0.0;      ///< mean per-link P(congested).
  double worst_congestion = 0.0;     ///< max per-link P(congested).
};

/// Aggregates link estimates per AS (AS 0 — the source ISP — is
/// skipped). Sorted by worst_congestion descending.
[[nodiscard]] std::vector<peer_summary> build_peer_report(
    const topology& t, const probability_estimates& estimates);

}  // namespace ntom

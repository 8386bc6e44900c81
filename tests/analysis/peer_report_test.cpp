#include "ntom/analysis/peer_report.hpp"

#include <gtest/gtest.h>

#include "ntom/sim/packet_sim.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using namespace topogen;

congestion_model toy_model(const topology& t,
                           std::vector<std::pair<std::size_t, double>> qs) {
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.congestable_links = bitvec(t.num_links());
  for (const auto& [r, q] : qs) m.phase_q[0][r] = q;
  return m;
}

TEST(PeerReportTest, RanksCongestedPeerFirst) {
  const topology t = make_toy(toy_case::case1);
  // AS 1 (e2,e3) is hot, AS 2 (e4) quiet.
  const auto model = toy_model(t, {{4, 0.4}});
  sim_params sim;
  sim.intervals = 1200;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  const auto result = compute_correlation_complete(t, data);
  const auto report = build_peer_report(t, result.estimates);

  ASSERT_GE(report.size(), 1u);
  EXPECT_EQ(report.front().peer, 1u);
  EXPECT_NEAR(report.front().worst_congestion, 0.4, 0.06);
  // The source AS (0) never appears.
  for (const auto& row : report) EXPECT_NE(row.peer, 0u);
}

TEST(PeerReportTest, CountsMonitoredAndEstimatedLinks) {
  const topology t = make_toy(toy_case::case1);
  const auto model = toy_model(t, {{4, 0.3}});
  sim_params sim;
  sim.intervals = 800;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, model, sim);
  const auto result = compute_correlation_complete(t, data);
  const auto report = build_peer_report(t, result.estimates);
  for (const auto& row : report) {
    EXPECT_GT(row.monitored_links, 0u);
    EXPECT_LE(row.estimated_links, row.monitored_links);
  }
}

}  // namespace
}  // namespace ntom

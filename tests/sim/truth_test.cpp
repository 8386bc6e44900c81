#include "ntom/sim/truth.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "ntom/corr/joint.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using namespace topogen;

TEST(GroundTruthTest, SingleLinkProbability) {
  const topology t = make_toy(toy_case::case1);
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.phase_q[0][0] = 0.3;  // e1's private router link.
  const ground_truth truth(t, m, 100);
  EXPECT_NEAR(truth.link_congestion_probability(toy_e1), 0.3, 1e-12);
  EXPECT_NEAR(truth.link_congestion_probability(toy_e2), 0.0, 1e-12);
}

TEST(GroundTruthTest, SharedRouterLinkCountedOnce) {
  const topology t = make_toy(toy_case::case1);
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.phase_q[0][4] = 0.2;  // shared by e2 and e3.
  const ground_truth truth(t, m, 100);

  bitvec pair(t.num_links());
  pair.set(toy_e2);
  pair.set(toy_e3);
  // Perfect correlation: P(both good) = 0.8, not 0.64.
  EXPECT_NEAR(truth.good_probability(pair), 0.8, 1e-12);
  // P(both congested) = 0.2, not 0.04.
  EXPECT_NEAR(truth.set_congestion_probability(pair), 0.2, 1e-12);
}

TEST(GroundTruthTest, MultipleRouterLinksCompose) {
  const topology t = make_toy(toy_case::case1);
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.phase_q[0][1] = 0.1;  // e2 private.
  m.phase_q[0][4] = 0.2;  // e2+e3 shared.
  const ground_truth truth(t, m, 100);
  // e2 congested iff private OR shared congested: 1 - 0.9*0.8.
  EXPECT_NEAR(truth.link_congestion_probability(toy_e2), 1.0 - 0.72, 1e-12);
  // e3 only via shared: 0.2.
  EXPECT_NEAR(truth.link_congestion_probability(toy_e3), 0.2, 1e-12);
}

TEST(GroundTruthTest, IndependentLinksFactorize) {
  const topology t = make_toy(toy_case::case1);
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.phase_q[0][0] = 0.3;  // e1.
  m.phase_q[0][3] = 0.5;  // e4.
  const ground_truth truth(t, m, 100);
  bitvec pair(t.num_links());
  pair.set(toy_e1);
  pair.set(toy_e4);
  EXPECT_NEAR(truth.good_probability(pair), 0.7 * 0.5, 1e-12);
  EXPECT_NEAR(truth.set_congestion_probability(pair), 0.3 * 0.5, 1e-12);
}

TEST(GroundTruthTest, PhaseMixture) {
  const topology t = make_toy(toy_case::case1);
  congestion_model m;
  m.phase_q.assign(2, std::vector<double>(t.num_router_links(), 0.0));
  m.phase_q[0][0] = 0.1;
  m.phase_q[1][0] = 0.5;
  m.phase_length = 50;
  // T = 100: phases weighted 50/50.
  const ground_truth truth(t, m, 100);
  EXPECT_NEAR(truth.link_congestion_probability(toy_e1), 0.3, 1e-12);
  // T = 75: weights 50/25 -> (0.1*2 + 0.5)/3.
  const ground_truth truth75(t, m, 75);
  EXPECT_NEAR(truth75.link_congestion_probability(toy_e1),
              (0.1 * 50 + 0.5 * 25) / 75.0, 1e-12);
}

TEST(GroundTruthTest, LastPhaseAbsorbsRemainder) {
  const topology t = make_toy(toy_case::case1);
  congestion_model m;
  m.phase_q.assign(2, std::vector<double>(t.num_router_links(), 0.0));
  m.phase_q[0][0] = 0.0;
  m.phase_q[1][0] = 1.0;
  m.phase_length = 10;
  // T = 100: phase 0 covers 10 intervals, phase 1 covers 90.
  const ground_truth truth(t, m, 100);
  EXPECT_NEAR(truth.link_congestion_probability(toy_e1), 0.9, 1e-12);
}

TEST(GroundTruthTest, EmpiricalFrequenciesConverge) {
  // The simulator must agree with the analytic truth (law of large
  // numbers; oracle monitoring isolates the congestion process).
  const topology t = make_toy(toy_case::case2);
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.phase_q[0][4] = 0.25;  // e2,e3 shared.
  m.phase_q[0][5] = 0.4;   // e1,e4 shared.
  m.congestable_links = bitvec(t.num_links());
  const ground_truth truth(t, m, 0);

  sim_params sim;
  sim.intervals = 20000;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, m, sim);

  std::vector<std::size_t> count(t.num_links(), 0);
  std::size_t joint23 = 0;
  for (std::size_t i = 0; i < data.intervals; ++i) {
    for (link_id e = 0; e < t.num_links(); ++e) {
      count[e] += data.true_links.test(i, e);
    }
    joint23 += data.true_links.test(i, toy_e2) && data.true_links.test(i, toy_e3);
  }
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_NEAR(static_cast<double>(count[e]) / data.intervals,
                truth.link_congestion_probability(e), 0.02)
        << "link " << e;
  }
  bitvec pair(t.num_links());
  pair.set(toy_e2);
  pair.set(toy_e3);
  EXPECT_NEAR(static_cast<double>(joint23) / data.intervals,
              truth.set_congestion_probability(pair), 0.02);
}

TEST(GroundTruthTest, SetCongestionAboveMemberCapThrows) {
  const topology t = generate_brite({});
  ASSERT_GT(t.num_links(), 65u);
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.1));
  const ground_truth truth(t, m, 100);
  for (const std::size_t members : {max_joint_members + 1, std::size_t{65}}) {
    bitvec links(t.num_links());
    for (std::size_t e = 0; e < members; ++e) links.set(e);
    EXPECT_THROW((void)truth.set_congestion_probability(links),
                 std::invalid_argument)
        << members;
  }
  bitvec pair(t.num_links());
  pair.set(0);
  pair.set(1);
  const double p = truth.set_congestion_probability(pair);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

}  // namespace
}  // namespace ntom

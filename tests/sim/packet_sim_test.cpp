#include "ntom/sim/packet_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "ntom/sim/scenario.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/toy.hpp"
#include "ntom/util/crc32.hpp"
#include "ntom/util/simd/simd.hpp"

namespace ntom {
namespace {

using namespace topogen;

congestion_model model_with(const topology& t,
                            std::vector<std::pair<std::size_t, double>> qs) {
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.congestable_links = bitvec(t.num_links());
  for (const auto& [r, q] : qs) m.phase_q[0][r] = q;
  return m;
}

TEST(PacketSimTest, ShapesAreConsistent) {
  const topology t = make_toy(toy_case::case1);
  const auto m = model_with(t, {{0, 0.3}});
  sim_params sim;
  sim.intervals = 50;
  const auto data = run_experiment(t, m, sim);
  EXPECT_EQ(data.intervals, 50u);
  EXPECT_EQ(data.path_good.rows(), t.num_paths());
  EXPECT_EQ(data.path_good.cols(), 50u);
  EXPECT_EQ(data.true_links.rows(), 50u);
  EXPECT_EQ(data.true_links.cols(), t.num_links());
}

TEST(PacketSimTest, NoCongestionMostlyGoodObservations) {
  const topology t = make_toy(toy_case::case1);
  const auto m = model_with(t, {});
  sim_params sim;
  sim.intervals = 100;
  sim.packets_per_path = 500;
  const auto data = run_experiment(t, m, sim);
  // E2E monitoring has false positives (the paper's §2 caveat): a good
  // short path whose links draw loss near f can cross the threshold
  // under probing noise. The margin keeps this rare but not zero.
  const std::size_t good = data.path_good.count();
  EXPECT_GE(good, 97 * t.num_paths());  // >= 97% of path-intervals.
  EXPECT_TRUE(data.true_links.or_of_rows().empty());  // truth is clean.
}

TEST(PacketSimTest, NoCongestionOracleAllGood) {
  const topology t = make_toy(toy_case::case1);
  const auto m = model_with(t, {});
  sim_params sim;
  sim.intervals = 100;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, m, sim);
  EXPECT_EQ(data.always_good_paths.count(), t.num_paths());
}

TEST(PacketSimTest, OracleMonitorMatchesLinkStates) {
  const topology t = make_toy(toy_case::case1);
  const auto m = model_with(t, {{0, 0.5}});  // drives e1 = paths p1, p2.
  sim_params sim;
  sim.intervals = 200;
  sim.oracle_monitor = true;
  const auto data = run_experiment(t, m, sim);
  for (std::size_t i = 0; i < data.intervals; ++i) {
    const bool e1_congested = data.true_links.test(i, toy_e1);
    EXPECT_EQ(!data.path_good.test(toy_p1, i), e1_congested);
    EXPECT_EQ(!data.path_good.test(toy_p2, i), e1_congested);
    EXPECT_TRUE(data.path_good.test(toy_p3, i));
  }
}

TEST(PacketSimTest, PathGoodBitsComplementCongestedBits) {
  const topology t = make_toy(toy_case::case1);
  const auto m = model_with(t, {{0, 0.4}, {4, 0.3}});
  sim_params sim;
  sim.intervals = 120;
  const auto data = run_experiment(t, m, sim);
  for (std::size_t i = 0; i < data.intervals; ++i) {
    const bitvec congested = data.congested_paths_at(i);
    for (path_id p = 0; p < t.num_paths(); ++p) {
      EXPECT_NE(data.path_good.test(p, i), congested.test(p));
    }
  }
}

TEST(PacketSimTest, EverCongestedTracksTruth) {
  const topology t = make_toy(toy_case::case1);
  const auto m = model_with(t, {{0, 0.5}});
  sim_params sim;
  sim.intervals = 200;
  const auto data = run_experiment(t, m, sim);
  const bitvec ever_congested = data.true_links.or_of_rows();
  EXPECT_TRUE(ever_congested.test(toy_e1));
  EXPECT_FALSE(ever_congested.test(toy_e2));
  EXPECT_FALSE(ever_congested.test(toy_e4));
}

TEST(PacketSimTest, DeterministicInSeed) {
  const topology t = make_toy(toy_case::case1);
  const auto m = model_with(t, {{0, 0.4}, {4, 0.2}});
  sim_params sim;
  sim.intervals = 80;
  sim.seed = 31;
  const auto a = run_experiment(t, m, sim);
  const auto b = run_experiment(t, m, sim);
  EXPECT_TRUE(a.path_good == b.path_good);
  EXPECT_TRUE(a.true_links == b.true_links);
}

TEST(PacketSimTest, ProbingDetectsSevereCongestion) {
  const topology t = make_toy(toy_case::case1);
  const auto m = model_with(t, {{0, 1.0}});  // e1 always congested.
  sim_params sim;
  sim.intervals = 300;
  sim.packets_per_path = 300;
  const auto data = run_experiment(t, m, sim);
  // Paths through e1 should be observed congested in the vast majority
  // of intervals (loss is drawn U(0.01,1), mostly well above threshold).
  std::size_t congested_p1 = 0;
  for (std::size_t i = 0; i < data.intervals; ++i) {
    congested_p1 += !data.path_good.test(toy_p1, i);
  }
  EXPECT_GT(congested_p1, 250u);
}

TEST(PacketSimTest, PathObservationFrequencyTracksLinkProbability) {
  const topology t = make_toy(toy_case::case1);
  const double q = 0.35;
  const auto m = model_with(t, {{3, q}});  // e4 -> path p3 only.
  sim_params sim;
  sim.intervals = 3000;
  sim.packets_per_path = 400;
  const auto data = run_experiment(t, m, sim);
  std::size_t congested_p3 = 0;
  for (std::size_t i = 0; i < data.intervals; ++i) {
    congested_p3 += !data.path_good.test(toy_p3, i);
  }
  const double freq = static_cast<double>(congested_p3) /
                      static_cast<double>(data.intervals);
  // Probing noise: loss drawn just above f may evade the f^d threshold,
  // so allow a modest band around q.
  EXPECT_NEAR(freq, q, 0.06);
}

/// CRC-32 of a matrix's packed words, row by row.
std::uint32_t digest(const bit_matrix& m, std::uint32_t crc) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    crc = crc32(m.row_words(r), m.word_stride() * sizeof(std::uint64_t), crc);
  }
  return crc;
}

struct stream_case {
  const char* scenario;
  std::size_t packets;
  bool oracle;
  std::uint32_t expected;
};

// Digests of the simulated stream, recorded with the per-path
// rng::binomial loop the batched sampler replaced. Any change to the
// RNG stream, the draw order or the classification shows up here (and
// in every gated accuracy cell downstream). packets = 257 exercises the
// per-path fallback above the batched sampler's 256-draw limit.
constexpr stream_case kStreamCases[] = {
    {"random_congestion", 1, false, 0xbfe43fddu},
    {"random_congestion", 200, false, 0x85fe5f1du},
    {"random_congestion", 257, false, 0xbe35f253u},
    {"srlg", 1, false, 0x968aee34u},
    {"srlg", 200, false, 0x5d5af2b5u},
    {"srlg", 257, false, 0x5283a093u},
    {"gilbert", 1, false, 0x7bba8aeau},
    {"gilbert", 200, false, 0x32dc81b0u},
    {"gilbert", 257, false, 0xf625778fu},
    {"random_congestion", 200, true, 0x44ccf84bu},
};

TEST(PacketSimTest, StreamMatchesRecordedDigest) {
  const simd::level saved = simd::active_level();
  topogen::brite_params bp;
  bp.seed = 3;
  const topology t = topogen::generate_brite(bp);
  for (const stream_case& c : kStreamCases) {
    scenario_params sp;
    sp.seed = 5;
    const congestion_model m = make_scenario(t, c.scenario, sp);
    sim_params sim;
    sim.intervals = 300;
    sim.packets_per_path = c.packets;
    sim.oracle_monitor = c.oracle;
    sim.seed = 17;
    for (const simd::level l : simd::available_levels()) {
      ASSERT_TRUE(simd::set_level(l));
      const experiment_data data = run_experiment(t, m, sim);
      const std::uint32_t got =
          digest(data.true_links, digest(data.path_good, 0));
      EXPECT_EQ(got, c.expected)
          << c.scenario << " packets=" << c.packets << " oracle=" << c.oracle
          << " level=" << simd::level_name(l);
    }
  }
  simd::set_level(saved);
}

}  // namespace
}  // namespace ntom

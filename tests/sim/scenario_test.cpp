#include "ntom/sim/scenario.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ntom/sim/truth.hpp"
#include "ntom/topogen/brite.hpp"

namespace ntom {
namespace {

topology test_topology() {
  topogen::brite_params p;
  p.seed = 17;
  return topogen::generate_brite(p);
}

TEST(ScenarioTest, RandomCongestionTargetsRoughlyTenPercent) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  const auto model = make_scenario(t, "random_congestion", sp);
  const double covered = static_cast<double>(t.covered_links().count());
  const double congestable = static_cast<double>(model.congestable_links.count());
  // Driver sharing can pull in a few extra links; stay in a loose band.
  EXPECT_GT(congestable, 0.05 * covered);
  EXPECT_LT(congestable, 0.30 * covered);
}

TEST(ScenarioTest, StationaryModelsHaveOnePhase) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  const auto model = make_scenario(t, "random_congestion", sp);
  EXPECT_EQ(model.num_phases(), 1u);
}

TEST(ScenarioTest, ConcentratedPicksEdgeLinks) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  const auto model = make_scenario(t, "concentrated_congestion", sp);
  // Every directly-driven link must be an edge link; links dragged in
  // via shared router links may not be, so check the drivers' targets:
  // at least 80% of congestable links are edge links.
  std::size_t edge = 0;
  model.congestable_links.for_each([&](std::size_t e) {
    if (t.link(static_cast<link_id>(e)).edge) ++edge;
  });
  EXPECT_GE(edge * 5, model.congestable_links.count() * 4);
}

TEST(ScenarioTest, NoIndependenceEveryLinkHasPartner) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  const auto model = make_scenario(t, "no_independence", sp);
  ASSERT_GE(model.congestable_links.count(), 2u);

  // Every congestable link shares a driver router link with another
  // congestable link (the defining property of the scenario).
  const auto& q = model.phase_q[0];
  model.congestable_links.for_each([&](std::size_t le) {
    const auto e = static_cast<link_id>(le);
    bool has_partner = false;
    for (const router_link_id r : t.link(e).router_links) {
      if (q[r] <= 0.0) continue;
      for (const link_id other : t.links_on_router_link(r)) {
        if (other != e) has_partner = true;
      }
    }
    EXPECT_TRUE(has_partner) << "link " << e << " has no correlated partner";
  });
}

TEST(ScenarioTest, NonStationaryDrawsDistinctPhases) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  sp.nonstationary = true;
  sp.num_phases = 4;
  sp.phase_length = 25;
  const auto model = make_scenario(t, "random_congestion", sp);
  EXPECT_EQ(model.num_phases(), 4u);
  EXPECT_EQ(model.phase_length, 25u);

  // Same driver set across phases, different values.
  bool any_differ = false;
  for (std::size_t r = 0; r < model.phase_q[0].size(); ++r) {
    EXPECT_EQ(model.phase_q[0][r] > 0.0, model.phase_q[1][r] > 0.0)
        << "driver set must not change across phases";
    if (model.phase_q[0][r] != model.phase_q[1][r]) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(ScenarioTest, SpecOptionsOverrideParams) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  const auto model =
      make_scenario(t, "random_congestion,nonstationary,phase_length=20", sp);
  // The spec turned nonstationarity on; num_phases stays unset (one
  // phase) but the phase length must come from the spec.
  EXPECT_EQ(model.phase_length, 20u);

  const auto fat = make_scenario(t, "random_congestion,fraction=0.3", sp);
  const auto thin = make_scenario(t, "random_congestion,fraction=0.05", sp);
  EXPECT_GT(fat.congestable_links.count(), thin.congestable_links.count());
}

TEST(ScenarioTest, NoStationarityLayersOnBaseScenario) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  sp.num_phases = 3;

  // The registered layered scenario forces nonstationarity and builds
  // the base scenario bit-identically.
  const auto layered = make_scenario(t, "no_stationarity", sp);
  EXPECT_EQ(layered.num_phases(), 3u);

  scenario_params base = sp;
  base.nonstationary = true;
  const auto direct = make_scenario(t, "no_independence", base);
  EXPECT_EQ(layered.phase_q, direct.phase_q);
  EXPECT_EQ(layered.congestable_links, direct.congestable_links);

  // And the base is selectable by option.
  const auto random_base =
      make_scenario(t, "no_stationarity,base=random_congestion", sp);
  const auto random_direct = make_scenario(t, "random_congestion", base);
  EXPECT_EQ(random_base.phase_q, random_direct.phase_q);
  EXPECT_EQ(random_base.congestable_links, random_direct.congestable_links);
}

TEST(ScenarioTest, NoStationarityRejectsUnsetPhaseCount) {
  // With num_phases unset it would build one phase and equal its base;
  // the error names where the count comes from.
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  ASSERT_EQ(sp.num_phases, 0u);
  try {
    (void)make_scenario(t, "no_stationarity", sp);
    FAIL() << "expected spec_error";
  } catch (const spec_error& e) {
    EXPECT_NE(std::string(e.what()).find("run_config::reconcile"),
              std::string::npos)
        << e.what();
  }
  // A stationary scenario builds its one phase as before.
  EXPECT_EQ(make_scenario(t, "no_independence", sp).num_phases(), 1u);
}

TEST(ScenarioTest, ApplyScenarioSpecIsIdempotent) {
  scenario_params sp;
  const scenario_spec s = "no_stationarity,phase_length=12,fraction=0.15";
  const scenario_params once = apply_scenario_spec(s, sp);
  const scenario_params twice = apply_scenario_spec(s, once);
  EXPECT_TRUE(once.nonstationary);
  EXPECT_EQ(once.phase_length, 12u);
  EXPECT_DOUBLE_EQ(once.congestable_fraction, 0.15);
  EXPECT_EQ(twice.nonstationary, once.nonstationary);
  EXPECT_EQ(twice.phase_length, once.phase_length);
  EXPECT_DOUBLE_EQ(twice.congestable_fraction, once.congestable_fraction);
}

TEST(ScenarioTest, DeterministicInSeed) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 5;
  const auto a = make_scenario(t, "no_independence", sp);
  const auto b = make_scenario(t, "no_independence", sp);
  EXPECT_EQ(a.phase_q, b.phase_q);
  EXPECT_EQ(a.congestable_links, b.congestable_links);
}

TEST(CorrelatedScenarioTest, SrlgBuildsGroupsFromAsClustering) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  const auto model = make_scenario(t, "srlg", sp);
  ASSERT_FALSE(model.groups.empty());
  ASSERT_EQ(model.phase_group_q.size(), 1u);
  ASSERT_EQ(model.phase_group_q[0].size(), model.groups.size());
  for (const double q : model.phase_group_q[0]) {
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
  EXPECT_GT(model.congestable_links.count(), 1u);
  // Every group clusters one AS: all member router links carry a link
  // of that AS, and groups hold at least min_group covered links.
  for (const risk_group& g : model.groups) {
    EXPECT_FALSE(g.members.empty());
    bitvec driven(t.num_links());
    for (const router_link_id r : g.members) {
      for (const link_id e : t.links_on_router_link(r)) driven.set(e);
    }
    driven &= t.covered_links();
    EXPECT_GE(driven.count(), 2u);
  }
}

TEST(CorrelatedScenarioTest, SrlgRespectsOptions) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  const auto wide = make_scenario(t, "srlg,fraction=0.4", sp);
  const auto narrow = make_scenario(t, "srlg,fraction=0.05", sp);
  EXPECT_GE(wide.groups.size(), narrow.groups.size());
  // An impossible group size empties the model instead of crashing.
  const auto empty = make_scenario(t, "srlg,min_group=100000", sp);
  EXPECT_TRUE(empty.groups.empty());
  EXPECT_EQ(empty.congestable_links.count(), 0u);
  EXPECT_THROW((void)make_scenario(t, "srlg,min_group=0", sp), spec_error);
}

TEST(CorrelatedScenarioTest, SrlgNonstationaryRedrawsGroupProbabilities) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  sp.nonstationary = true;
  sp.num_phases = 3;
  sp.phase_length = 20;
  const auto model = make_scenario(t, "srlg", sp);
  ASSERT_EQ(model.phase_group_q.size(), 3u);
  EXPECT_EQ(model.phase_length, 20u);
  ASSERT_FALSE(model.groups.empty());
  EXPECT_NE(model.phase_group_q[0], model.phase_group_q[1]);
}

TEST(CorrelatedScenarioTest, GilbertBuildsValidChains) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  const auto model = make_scenario(t, "gilbert", sp);
  ASSERT_FALSE(model.chains.empty());
  EXPECT_GT(model.congestable_links.count(), 0u);
  for (const gilbert_chain& c : model.chains) {
    EXPECT_LT(c.driver, t.num_router_links());
    EXPECT_DOUBLE_EQ(c.p_exit_bad, 1.0 / 8.0);    // default burst.
    EXPECT_DOUBLE_EQ(c.p_enter_bad, 1.0 / 72.0);  // default gap.
    EXPECT_GE(c.q_bad, 0.0);
    EXPECT_LE(c.q_bad, 1.0);
    EXPECT_DOUBLE_EQ(c.q_good, 0.0);
  }

  const auto fast = make_scenario(t, "gilbert,burst=2,gap=4,q_good=0.1", sp);
  ASSERT_FALSE(fast.chains.empty());
  EXPECT_DOUBLE_EQ(fast.chains[0].p_exit_bad, 0.5);
  EXPECT_DOUBLE_EQ(fast.chains[0].p_enter_bad, 0.25);
  EXPECT_DOUBLE_EQ(fast.chains[0].q_good, 0.1);

  EXPECT_THROW((void)make_scenario(t, "gilbert,burst=0.5", sp), spec_error);
  EXPECT_THROW((void)make_scenario(t, "gilbert,q_good=2", sp), spec_error);
  EXPECT_THROW((void)make_scenario(t, "gilbert,nonstationary", sp),
               spec_error);  // chains are not phase-driven.

  // A batch-wide nonstationary default is cleared, not honored: the
  // chains carry the time structure, so no phases are ever pre-drawn.
  scenario_params defaults;
  defaults.nonstationary = true;
  EXPECT_FALSE(apply_scenario_spec("gilbert", defaults).nonstationary);

  // And layering no_stationarity on gilbert fails loudly instead of
  // silently reporting stationary results under the layered label.
  scenario_params layered;
  layered.seed = 3;
  layered.num_phases = 3;
  EXPECT_THROW((void)make_scenario(t, "no_stationarity,base=gilbert", layered),
               spec_error);
}

TEST(CorrelatedScenarioTest, HotspotDriftMovesAcrossPhases) {
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 3;
  sp.num_phases = 6;
  sp.phase_length = 10;
  // configure() forces nonstationarity — the drift IS the phase change.
  const scenario_params configured = apply_scenario_spec("hotspot_drift", sp);
  EXPECT_TRUE(configured.nonstationary);

  sp.nonstationary = true;
  const auto model = make_scenario(t, "hotspot_drift", sp);
  ASSERT_EQ(model.num_phases(), 6u);
  EXPECT_EQ(model.phase_length, 10u);
  EXPECT_GT(model.congestable_links.count(), 0u);

  // The hot-spot walks: some phase pair must drive different routers.
  bool drivers_move = false;
  for (std::size_t k = 1; k < model.num_phases() && !drivers_move; ++k) {
    for (std::size_t r = 0; r < model.phase_q[k].size(); ++r) {
      if ((model.phase_q[0][r] > 0.0) != (model.phase_q[k][r] > 0.0)) {
        drivers_move = true;
        break;
      }
    }
  }
  EXPECT_TRUE(drivers_move);
}

TEST(CorrelatedScenarioTest, NewScenariosAreDeterministicInSeed) {
  const topology t = test_topology();
  for (const char* name : {"srlg", "gilbert", "hotspot_drift"}) {
    scenario_params sp;
    sp.seed = 21;
    sp.num_phases = 4;
    const auto a = make_scenario(t, name, sp);
    const auto b = make_scenario(t, name, sp);
    EXPECT_EQ(a.phase_q, b.phase_q) << name;
    EXPECT_EQ(a.phase_group_q, b.phase_group_q) << name;
    EXPECT_EQ(a.congestable_links, b.congestable_links) << name;
    ASSERT_EQ(a.groups.size(), b.groups.size()) << name;
    for (std::size_t g = 0; g < a.groups.size(); ++g) {
      EXPECT_EQ(a.groups[g].members, b.groups[g].members) << name;
    }
    ASSERT_EQ(a.chains.size(), b.chains.size()) << name;
    for (std::size_t c = 0; c < a.chains.size(); ++c) {
      EXPECT_EQ(a.chains[c].driver, b.chains[c].driver) << name;
      EXPECT_EQ(a.chains[c].q_bad, b.chains[c].q_bad) << name;
      EXPECT_EQ(a.chains[c].start_bad, b.chains[c].start_bad) << name;
    }
  }
}

TEST(CorrelatedScenarioTest, AnalyticTruthMatchesSampledFrequencies) {
  const topology t = test_topology();
  for (const char* name : {"srlg", "gilbert", "hotspot_drift"}) {
    scenario_params sp;
    sp.seed = 9;
    sp.nonstationary = true;  // ignored where not applicable.
    sp.phase_length = 50;
    sp.num_phases = 100;
    const auto model = make_scenario(t, name, sp);

    const std::size_t T = 5000;  // = num_phases * phase_length.
    const ground_truth truth(t, model, T);
    std::vector<std::size_t> counts(t.num_links(), 0);
    link_state_sampler sampler(t, model, 17);
    for (std::size_t i = 0; i < T; ++i) {
      sampler.sample_interval(i).for_each(
          [&](std::size_t e) { ++counts[e]; });
    }
    model.congestable_links.for_each([&](std::size_t le) {
      const auto e = static_cast<link_id>(le);
      const double freq = static_cast<double>(counts[e]) / T;
      EXPECT_NEAR(freq, truth.link_congestion_probability(e), 0.06)
          << name << " link " << e;
    });
  }
}

TEST(ScenarioTest, NamesAreHuman) {
  EXPECT_EQ(scenario_label("random_congestion"), "Random Congestion");
  EXPECT_EQ(scenario_label("concentrated_congestion"),
            "Concentrated Congestion");
  EXPECT_EQ(scenario_label("no_independence"), "No Independence");
  EXPECT_EQ(scenario_label("no_stationarity"), "No Stationarity");
  EXPECT_EQ(scenario_label("srlg"), "Shared-Risk Groups");
  EXPECT_EQ(scenario_label("gilbert"), "Gilbert Bursts");
  EXPECT_EQ(scenario_label("hotspot_drift"), "Hotspot Drift");
  EXPECT_EQ(scenario_label("random_congestion,label=Custom"), "Custom");
}

TEST(ScenarioTest, AliasesResolve) {
  for (const char* alias : {"random", "concentrated", "noindep", "nostat",
                            "shared_risk", "gilbert_elliott", "bursty",
                            "hotspot"}) {
    EXPECT_TRUE(scenario_registry().contains(alias)) << alias;
  }
  const topology t = test_topology();
  scenario_params sp;
  sp.seed = 5;
  const auto by_alias = make_scenario(t, "noindep", sp);
  const auto by_name = make_scenario(t, "no_independence", sp);
  EXPECT_EQ(by_alias.phase_q, by_name.phase_q);
}

TEST(ScenarioTest, UnknownScenarioAndOptionThrow) {
  const topology t = test_topology();
  scenario_params sp;
  EXPECT_THROW((void)make_scenario(t, "rush_hour", sp), spec_error);
  EXPECT_THROW((void)make_scenario(t, "random_congestion,strength=9", sp),
               spec_error);
  EXPECT_THROW((void)make_scenario(t, "random_congestion,phase_length=0", sp),
               spec_error);
  EXPECT_THROW((void)make_scenario(t, "no_stationarity,base=no_stationarity", sp),
               spec_error);
}

TEST(ScenarioTest, ProbabilitiesAreValid) {
  const topology t = test_topology();
  for (const char* name : {"random_congestion", "concentrated_congestion",
                           "no_independence", "no_stationarity"}) {
    scenario_params sp;
    sp.seed = 11;
    sp.num_phases = 3;  // no_stationarity needs a count; others ignore it.
    const auto model = make_scenario(t, name, sp);
    for (const auto& phase : model.phase_q) {
      for (const double q : phase) {
        EXPECT_GE(q, 0.0);
        EXPECT_LE(q, 1.0);
      }
    }
  }
}

}  // namespace
}  // namespace ntom

#include "ntom/part/hier_infer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "ntom/exp/evals.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/trace/trace_reader.hpp"
#include "ntom/trace/trace_writer.hpp"

namespace ntom {
namespace {

/// Two 2-link islands (see partition_test.cpp): a plan with no cut
/// links, so every merge is single-contributor.
topology two_islands() {
  topology t(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    t.add_link({.as_number = i, .router_links = {i}, .edge = false});
  }
  t.add_path({0, 1});
  t.add_path({2, 3});
  t.finalize();
  return t;
}

/// Dumbbell with articulation link e2 (see partition_test.cpp); under
/// bicomp with max_cell_links=3 the cut set is exactly {e2}.
topology dumbbell() {
  topology t(5);
  for (std::uint32_t i = 0; i < 5; ++i) {
    t.add_link({.as_number = i, .router_links = {i}, .edge = false});
  }
  t.add_path({0, 1});
  t.add_path({1, 2});
  t.add_path({2, 0});
  t.add_path({2, 3});
  t.add_path({3, 4});
  t.add_path({4, 2});
  t.finalize();
  return t;
}

link_estimates cell_estimates(const partition_cell& cell,
                              std::initializer_list<double> values) {
  link_estimates le;
  le.congestion.assign(values);
  le.estimated = bitvec(cell.links.size());
  le.estimated.flip();
  return le;
}

/// Per-router-link stationary congestion model (the toy_model idiom).
congestion_model island_model(const topology& t,
                              std::vector<std::pair<std::size_t, double>> qs) {
  congestion_model m;
  m.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  m.congestable_links = bitvec(t.num_links());
  for (const auto& [r, q] : qs) {
    m.phase_q[0][r] = q;
    for (const link_id e : t.links_on_router_link(r)) {
      m.congestable_links.set(e);
    }
  }
  return m;
}

TEST(MergeCellEstimatesTest, SingleContributorIsExact) {
  const topology t = two_islands();
  const partition_plan plan =
      make_partition(t, {.mode = partition_mode::components});
  ASSERT_EQ(plan.cells.size(), 2u);

  std::vector<link_estimates> per_cell;
  per_cell.push_back(cell_estimates(plan.cells[0], {0.25, 0.5}));
  per_cell.push_back(cell_estimates(plan.cells[1], {0.75, 0.125}));

  const link_estimates merged = merge_cell_estimates(plan, per_cell);
  ASSERT_EQ(merged.congestion.size(), 4u);
  EXPECT_EQ(merged.estimated.count(), 4u);
  // Values land at the cells' global link ids, bit-identically.
  EXPECT_EQ(merged.congestion[plan.cells[0].links[0]], 0.25);
  EXPECT_EQ(merged.congestion[plan.cells[0].links[1]], 0.5);
  EXPECT_EQ(merged.congestion[plan.cells[1].links[0]], 0.75);
  EXPECT_EQ(merged.congestion[plan.cells[1].links[1]], 0.125);
}

TEST(MergeCellEstimatesTest, ThrowsOnCellCountMismatch) {
  const topology t = two_islands();
  const partition_plan plan =
      make_partition(t, {.mode = partition_mode::components});
  std::vector<link_estimates> per_cell(1);
  EXPECT_THROW((void)merge_cell_estimates(plan, per_cell), std::logic_error);
}

TEST(MergeCellEstimatesTest, CutLinkTakesWeightedAverage) {
  const topology t = dumbbell();
  const partition_plan plan = make_partition(
      t, {.mode = partition_mode::bicomp, .max_cell_links = 3});
  ASSERT_EQ(plan.cut_links, (std::vector<link_id>{2}));

  // Both cells see link 2 through two of their three paths, so the
  // weights tie and the merge is the plain average.
  std::vector<link_estimates> per_cell(plan.cells.size());
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    const partition_cell& cell = plan.cells[c];
    link_estimates le;
    le.congestion.assign(cell.links.size(), 0.0);
    le.estimated = bitvec(cell.links.size());
    le.estimated.flip();
    for (std::size_t i = 0; i < cell.links.size(); ++i) {
      le.congestion[i] = cell.links[i] == 2 ? (c == 0 ? 0.2 : 0.6)
                                            : 0.1 * (cell.links[i] + 1);
    }
    per_cell[c] = std::move(le);
  }

  const link_estimates merged = merge_cell_estimates(plan, per_cell);
  EXPECT_DOUBLE_EQ(merged.congestion[2], 0.4);
  EXPECT_TRUE(merged.estimated.test(2));
  // Non-cut links keep their owning cell's value exactly.
  EXPECT_EQ(merged.congestion[0], 0.1);
  EXPECT_EQ(merged.congestion[4], 0.5);
}

TEST(MergeCellEstimatesTest, CutLinkEstimatedIsOrAcrossCells) {
  const topology t = dumbbell();
  const partition_plan plan = make_partition(
      t, {.mode = partition_mode::bicomp, .max_cell_links = 3});

  std::vector<link_estimates> per_cell(plan.cells.size());
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    const partition_cell& cell = plan.cells[c];
    link_estimates le;
    le.congestion.assign(cell.links.size(), 0.5);
    le.estimated = bitvec(cell.links.size());
    le.estimated.flip();
    // Cell 1 could not determine the cut link: clear its flag and plant
    // a decoy value that must not leak into the merge.
    if (c == 1) {
      for (std::size_t i = 0; i < cell.links.size(); ++i) {
        if (cell.links[i] == 2) {
          le.estimated.reset(i);
          le.congestion[i] = 0.9;
        }
      }
    }
    per_cell[c] = std::move(le);
  }

  const link_estimates merged = merge_cell_estimates(plan, per_cell);
  // One contributor remains: its value survives bit-identically.
  EXPECT_TRUE(merged.estimated.test(2));
  EXPECT_EQ(merged.congestion[2], 0.5);

  // Neither cell determined it: the link stays undetermined.
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    const partition_cell& cell = plan.cells[c];
    for (std::size_t i = 0; i < cell.links.size(); ++i) {
      if (cell.links[i] == 2) per_cell[c].estimated.reset(i);
    }
  }
  const link_estimates none = merge_cell_estimates(plan, per_cell);
  EXPECT_FALSE(none.estimated.test(2));
  EXPECT_EQ(none.congestion[2], 0.0);
}

TEST(PartitionedEstimatorTest, MatchesMonolithicOnCleanSplit) {
  // With no cut links and no straddling paths, each cell sees exactly
  // its island's evidence — the partitioned fit must reproduce the
  // monolithic estimates.
  const topology t = two_islands();
  auto plan = std::make_shared<const partition_plan>(
      make_partition(t, {.mode = partition_mode::components}));

  const congestion_model model = island_model(t, {{0, 0.3}, {2, 0.4}});
  sim_params sim;
  sim.intervals = 400;
  sim.oracle_monitor = true;
  const experiment_data data = run_experiment(t, model, sim);

  const estimator_spec spec = "independence";
  const auto mono = make_estimator(spec);
  mono->fit(t, data);
  const auto part = make_partitioned_estimator(spec, plan);
  part->fit(t, data);

  const link_estimates a = mono->links();
  const link_estimates b = part->links();
  ASSERT_EQ(a.congestion.size(), b.congestion.size());
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_EQ(a.estimated.test(e), b.estimated.test(e)) << "link " << e;
    EXPECT_NEAR(a.congestion[e], b.congestion[e], 1e-12) << "link " << e;
  }
}

TEST(PartitionedEstimatorTest, StreamedFitMatchesMaterialized) {
  const topology t = two_islands();
  auto plan = std::make_shared<const partition_plan>(
      make_partition(t, {.mode = partition_mode::components}));
  const congestion_model model = island_model(t, {{1, 0.25}, {3, 0.35}});
  sim_params sim;
  sim.intervals = 300;
  sim.oracle_monitor = true;

  const estimator_spec spec = "independence";
  const auto materialized = make_partitioned_estimator(spec, plan);
  materialized->fit(t, run_experiment(t, model, sim));

  const auto streamed = make_partitioned_estimator(spec, plan);
  estimator_fit_sink sink(*streamed);
  run_experiment_streaming(t, model, sim, sink, 64);

  const link_estimates a = materialized->links();
  const link_estimates b = streamed->links();
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_EQ(a.estimated.test(e), b.estimated.test(e)) << "link " << e;
    EXPECT_DOUBLE_EQ(a.congestion[e], b.congestion[e]) << "link " << e;
  }
}

TEST(PartitionedEstimatorTest, BooleanInferenceLiftsCellAnswers) {
  const topology t = two_islands();
  auto plan = std::make_shared<const partition_plan>(
      make_partition(t, {.mode = partition_mode::components}));
  const congestion_model model = island_model(t, {{0, 0.3}, {2, 0.4}});
  sim_params sim;
  sim.intervals = 400;
  sim.oracle_monitor = true;
  const experiment_data data = run_experiment(t, model, sim);

  const estimator_spec spec = "sparsity";
  const auto mono = make_estimator(spec);
  mono->fit(t, data);
  const auto part = make_partitioned_estimator(spec, plan);
  part->fit(t, data);

  for (std::size_t i = 0; i < data.intervals; ++i) {
    const bitvec congested = data.congested_paths_at(i);
    const bitvec a = mono->infer(congested);
    const bitvec b = part->infer(congested);
    ASSERT_EQ(a.size(), b.size());
    for (link_id e = 0; e < t.num_links(); ++e) {
      EXPECT_EQ(a.test(e), b.test(e)) << "interval " << i << " link " << e;
    }
  }
}

TEST(PartitionedEstimatorTest, RejectsForeignTopology) {
  const topology t = two_islands();
  auto plan = std::make_shared<const partition_plan>(
      make_partition(t, {.mode = partition_mode::components}));
  const auto part = make_partitioned_estimator("independence", plan);

  const topology other = dumbbell();
  const congestion_model model = island_model(other, {{0, 0.3}});
  sim_params sim;
  sim.intervals = 10;
  sim.oracle_monitor = true;
  const experiment_data data = run_experiment(other, model, sim);
  EXPECT_THROW(part->fit(other, data), std::logic_error);
}

TEST(PartitionedEstimatorTest, MaskedReplayMatchesAcrossModes) {
  // A probe-budget capture replays with its mask, so prepare_run leaves
  // the store empty. Evaluated with run_config::part set, the run must
  // stream through the partitioned fits in both modes with equal rows,
  // and a requested capture must still be recorded.
  run_config live;
  live.topo = "brite,n=10,hosts=30,paths=60";
  live.topo_seed = 3;
  live.scenario = "random_congestion";
  live.sim.intervals = 60;
  live.sim.seed = 17;
  live.plan.policy = "uniform,frac=0.5";
  live.capture.path = ::testing::TempDir() + "/hier_masked_replay.trc";
  live.reconcile();
  {
    const run_artifacts run = prepare_topology(live);
    const auto writer = make_capture_writer(live, run);
    stream_experiment(run, live, *writer);
  }

  const std::string recapture =
      ::testing::TempDir() + "/hier_masked_recapture.trc";
  const estimator_cells cells({"bayes-indep"});
  const auto rows = [&](bool streamed) {
    run_config replay;
    replay.scenario = spec("trace").with_option("file", live.capture.path);
    replay.stream.enabled = streamed;
    replay.capture.path = recapture;  // recorded by the fit pass.
    replay.part.mode = partition_mode::bicomp;
    replay.part.max_cell_links = 24;
    const run_artifacts run =
        streamed ? prepare_topology(replay) : prepare_run(replay);
    EXPECT_FALSE(run.materialized());
    EXPECT_GT(make_partition(run.topo(), replay.part).cells.size(), 1u);
    const std::vector<measurement> out = cells.eval_all(replay, run);
    const trace_reader recaptured(recapture);
    EXPECT_TRUE(recaptured.has_mask());
    EXPECT_EQ(recaptured.intervals(), live.sim.intervals);
    std::remove(recapture.c_str());
    return out;
  };
  const std::vector<measurement> streamed = rows(true);
  const std::vector<measurement> materialized = rows(false);
  ASSERT_FALSE(streamed.empty());
  ASSERT_EQ(streamed.size(), materialized.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].series, materialized[i].series);
    EXPECT_EQ(streamed[i].metric, materialized[i].metric);
    EXPECT_EQ(streamed[i].value, materialized[i].value);  // bitwise.
  }
  std::remove(live.capture.path.c_str());
}

}  // namespace
}  // namespace ntom

// Streamed estimator fits and the streamed batch mode must be
// bit-identical to the materialized path for the same seeds, at every
// chunk size — streaming is an execution strategy, never a different
// estimator.
#include <gtest/gtest.h>

#include <memory>

#include "ntom/api/experiment.hpp"
#include "ntom/exp/runner.hpp"

namespace ntom {
namespace {

run_config small_config() {
  run_config c;
  c.topo = "brite,n=10,hosts=30,paths=60";
  c.topo_seed = 5;
  c.scenario = "no_independence";
  c.scenario_opts.seed = 7;
  c.sim.intervals = 60;
  c.sim.packets_per_path = 60;
  c.sim.seed = 9;
  return c;
}

constexpr std::size_t chunk_sizes[] = {1, 7, 64, 60};

void expect_links_equal(const link_estimates& a, const link_estimates& b,
                        std::size_t chunk) {
  ASSERT_EQ(a.congestion.size(), b.congestion.size());
  for (std::size_t e = 0; e < a.congestion.size(); ++e) {
    EXPECT_EQ(a.congestion[e], b.congestion[e])  // bitwise.
        << "chunk " << chunk << " link " << e;
  }
  EXPECT_EQ(a.estimated, b.estimated) << "chunk " << chunk;
}

/// Overrides neither fit protocol, so each base default would hand off
/// to the other.
class protocol_free_estimator final : public estimator {
 public:
  [[nodiscard]] estimator_caps caps() const noexcept override { return {}; }
};

TEST(StreamedFitTest, NeitherProtocolThrowsLogicError) {
  const run_artifacts run = prepare_run(small_config());
  protocol_free_estimator store_driven;
  EXPECT_THROW(store_driven.fit(run.topo(), run.data), std::logic_error);
  protocol_free_estimator chunk_driven;
  estimator_fit_sink sink(chunk_driven);
  EXPECT_THROW(stream_experiment(run, small_config(), sink),
               std::logic_error);
  // The guard is released on the way out: a second attempt throws the
  // same error instead of a stale-state one.
  EXPECT_THROW(store_driven.fit(run.topo(), run.data), std::logic_error);
}

TEST(StreamedFitTest, StreamedFitsMatchMaterializedAtEveryChunk) {
  const run_config config = small_config();
  const run_artifacts run = prepare_run(config);

  for (const char* name : {"sparsity", "bayes-indep", "independence",
                           "corr-heuristic", "bayes-corr", "corr-complete"}) {
    const std::unique_ptr<estimator> reference = make_estimator(name);
    reference->fit(run.topo(), run.data);

    for (const std::size_t chunk : chunk_sizes) {
      run_config streamed_config = config;
      streamed_config.stream.enabled = true;
      streamed_config.stream.chunk_intervals = chunk;

      const std::unique_ptr<estimator> streamed = make_estimator(name);
      estimator_fit_sink sink(*streamed);
      stream_experiment(run, streamed_config, sink);

      if (streamed->caps().link_estimation) {
        expect_links_equal(streamed->links(), reference->links(), chunk);
      }
      if (streamed->caps().boolean_inference) {
        for (std::size_t t = 0; t < run.data.intervals; ++t) {
          const bitvec congested = run.data.congested_paths_at(t);
          EXPECT_EQ(streamed->infer(congested), reference->infer(congested))
              << name << " chunk " << chunk << " interval " << t;
        }
      }
    }
  }
}

TEST(StreamedBatchTest, FacadeReportsAreBitIdentical) {
  const auto grid = [](bool streamed, std::size_t chunk) {
    experiment e;
    e.with_topology("brite,n=10,hosts=30,paths=60")
        .with_scenario("random_congestion")
        .with_scenario("no_independence")
        // Mixes chunk-protocol fits with a store-bound one.
        .with_estimators({"sparsity", "independence", "bayes-corr"})
        .replicas(2)
        .intervals(40)
        .with_streaming({streamed, chunk});
    return e.run({.threads = 2, .base_seed = 77});
  };

  const batch_report reference = grid(false, default_chunk_intervals);
  const auto ref_cells = reference.summarize();
  ASSERT_FALSE(ref_cells.empty());

  for (const std::size_t chunk : {1u, 7u, 64u}) {
    const batch_report streamed = grid(true, chunk);
    const auto cells = streamed.summarize();
    ASSERT_EQ(cells.size(), ref_cells.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].label, ref_cells[i].label);
      EXPECT_EQ(cells[i].series, ref_cells[i].series);
      EXPECT_EQ(cells[i].metric, ref_cells[i].metric);
      EXPECT_EQ(cells[i].mean, ref_cells[i].mean)  // bitwise.
          << "chunk " << chunk << " cell " << cells[i].label << "/"
          << cells[i].series << "/" << cells[i].metric;
      EXPECT_EQ(cells[i].stddev, ref_cells[i].stddev);
    }
  }
}

}  // namespace
}  // namespace ntom

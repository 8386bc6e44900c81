// tomography_service API semantics: config validation, epoch lifecycle,
// stable link identity across topology swaps, posterior carry-over, the
// snapshot query surface, and the measurement_sink adapter.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "ntom/exp/runner.hpp"
#include "ntom/service/service.hpp"

namespace ntom {
namespace {

run_config small_config(std::uint64_t scenario_seed = 7) {
  run_config config;
  config.topo = "brite,n=10,hosts=30,paths=60";
  config.topo_seed = 5;
  config.scenario = "no_independence";
  config.scenario_opts.seed = scenario_seed;
  config.sim.intervals = 200;
  config.sim.packets_per_path = 50;
  config.sim.seed = scenario_seed + 2;
  config.stream.enabled = true;
  config.stream.chunk_intervals = 50;
  return config;
}

service_config small_service(std::size_t window = 3) {
  service_config cfg;
  cfg.estimator = "independence";
  cfg.window_chunks = window;
  return cfg;
}

TEST(ServiceConfigTest, RejectsIncapableEstimatorsAndZeroWindow) {
  // bayes-corr cannot stream at all; sparsity streams but has no
  // per-link estimates — neither can back the service.
  service_config cfg;
  cfg.estimator = "bayes-corr";
  EXPECT_THROW(tomography_service{cfg}, std::invalid_argument);
  cfg.estimator = "sparsity";
  EXPECT_THROW(tomography_service{cfg}, std::invalid_argument);
  cfg.estimator = "independence";
  cfg.window_chunks = 0;
  EXPECT_THROW(tomography_service{cfg}, std::invalid_argument);
}

TEST(ServiceLifecycleTest, IngestBeforeEpochThrows) {
  tomography_service service(small_service());
  EXPECT_THROW(service.ingest(measurement_chunk{}), std::logic_error);
  EXPECT_EQ(service.snapshot(), nullptr);
}

TEST(ServiceLifecycleTest, EpochPublishesImmediatelyAndWindowSlides) {
  const run_config config = small_config();
  const run_artifacts run = prepare_topology(config);
  tomography_service service(small_service(/*window=*/3));

  service.begin_epoch(run.topo_ptr);
  const auto empty = service.snapshot();
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->epoch(), 1u);
  EXPECT_EQ(empty->version(), 1u);
  EXPECT_EQ(empty->window_chunks(), 0u);
  EXPECT_EQ(empty->window_intervals(), 0u);
  EXPECT_EQ(empty->confidence(), 0.0);
  EXPECT_TRUE(empty->verify());

  service_ingest_sink sink(service);
  stream_experiment(run, config, sink);

  const auto snap = service.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->version(), empty->version());
  // 200 intervals / 50-chunks = 4 chunks through a 3-chunk window.
  EXPECT_EQ(service.stats().chunks_ingested.load(), 4u);
  EXPECT_EQ(service.stats().chunks_retired.load(), 1u);
  EXPECT_EQ(snap->window_chunks(), 3u);
  EXPECT_EQ(snap->window_capacity(), 3u);
  EXPECT_EQ(snap->window_intervals(), 150u);
  EXPECT_EQ(snap->first_interval(), 50u);
  EXPECT_EQ(snap->end_interval(), 200u);
  EXPECT_GT(snap->confidence(), 0.0);
  EXPECT_TRUE(snap->verify());

  // congested_links is threshold-monotone and respects `estimated`.
  const bitvec all = snap->congested_links(0.0);
  const bitvec some = snap->congested_links(0.9);
  EXPECT_GE(all.count(), some.count());
  all.for_each([&](std::size_t e) {
    EXPECT_TRUE(snap->link_estimate(static_cast<link_id>(e)).estimated);
  });
}

TEST(ServiceSinkTest, RejectsForeignTopologyStream) {
  const run_config config = small_config();
  const run_artifacts run = prepare_topology(config);
  run_config other_config = small_config();
  other_config.topo_seed = 99;  // a different draw.
  const run_artifacts other = prepare_topology(other_config);

  tomography_service service(small_service());
  service.begin_epoch(run.topo_ptr);
  service_ingest_sink sink(service);
  EXPECT_THROW(stream_experiment(other, other_config, sink),
               std::logic_error);
}

TEST(StableLinkMapTest, MatchesSignaturesInOrder) {
  topology from(4);
  from.add_link({.as_number = 1, .router_links = {0}, .edge = false});
  from.add_link({.as_number = 1, .router_links = {1}, .edge = true});
  from.add_link({.as_number = 2, .router_links = {2, 3}, .edge = false});
  from.add_link({.as_number = 1, .router_links = {0}, .edge = false});
  from.add_path({0, 1});
  from.add_path({2, 3});
  from.finalize();

  topology to(4);
  // Same signature as from-links 0 and 3: pairs up in id order.
  to.add_link({.as_number = 1, .router_links = {0}, .edge = false});
  // No counterpart (different router set).
  to.add_link({.as_number = 2, .router_links = {2}, .edge = false});
  // Matches from-link 2.
  to.add_link({.as_number = 2, .router_links = {2, 3}, .edge = false});
  // Second link with the duplicated signature.
  to.add_link({.as_number = 1, .router_links = {0}, .edge = false});
  // Edge flag breaks the match against from-link 1.
  to.add_link({.as_number = 1, .router_links = {1}, .edge = false});
  to.add_path({0, 1});
  to.add_path({2, 3, 4});
  to.finalize();

  const std::vector<std::int64_t> map = stable_link_map(from, to);
  ASSERT_EQ(map.size(), 5u);
  EXPECT_EQ(map[0], 0);
  EXPECT_EQ(map[1], npos_link);
  EXPECT_EQ(map[2], 2);
  EXPECT_EQ(map[3], 3);  // second holder of the duplicate signature.
  EXPECT_EQ(map[4], npos_link);
}

TEST(ServiceEpochTest, PosteriorCarriesOverStableLinks) {
  const run_config config = small_config();
  const run_artifacts run = prepare_topology(config);
  tomography_service service(small_service(/*window=*/4));

  service.begin_epoch(run.topo_ptr);
  service_ingest_sink sink(service);
  stream_experiment(run, config, sink);
  const auto fitted = service.snapshot();
  ASSERT_NE(fitted, nullptr);
  ASSERT_GT(fitted->congested_links(0.0).count(), 0u);

  // Epoch swap onto a regenerated (identical-signature) topology: every
  // estimated link's posterior must survive, flagged carried, with the
  // window reset.
  const run_artifacts regenerated = prepare_topology(small_config(8));
  ASSERT_NE(regenerated.topo_ptr.get(), run.topo_ptr.get());
  service.begin_epoch(regenerated.topo_ptr);

  const auto carried = service.snapshot();
  ASSERT_NE(carried, nullptr);
  EXPECT_EQ(carried->epoch(), 2u);
  EXPECT_EQ(carried->window_chunks(), 0u);
  EXPECT_TRUE(carried->verify());
  for (link_id e = 0; e < regenerated.topo().num_links(); ++e) {
    const snapshot_link& before = fitted->link_estimate(e);
    const snapshot_link& after = carried->link_estimate(e);
    EXPECT_EQ(after.estimated, before.estimated) << "link " << e;
    if (before.estimated) {
      EXPECT_EQ(after.congestion, before.congestion) << "link " << e;
      EXPECT_TRUE(after.carried) << "link " << e;
    }
  }

  // New evidence replaces the carried posterior with fitted values.
  const run_config next = small_config(8);
  service_ingest_sink next_sink(service);
  stream_experiment(regenerated, next, next_sink);
  const auto refitted = service.snapshot();
  ASSERT_NE(refitted, nullptr);
  EXPECT_EQ(refitted->epoch(), 2u);
  bool any_fitted = false;
  for (link_id e = 0; e < regenerated.topo().num_links(); ++e) {
    if (refitted->link_estimate(e).estimated &&
        !refitted->link_estimate(e).carried) {
      any_fitted = true;
    }
  }
  EXPECT_TRUE(any_fitted);
}

}  // namespace
}  // namespace ntom

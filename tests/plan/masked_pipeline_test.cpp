// Masked-stream semantics of the downstream consumers: pathset_counter
// only counts fully observed sets (and its windowed retire subtracts
// exactly what a masked chunk added), the observation scorer survives
// zero-observed intervals, and the config/runner layer enforces the
// policy plumbing rules.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ntom/exp/evals.hpp"
#include "ntom/exp/metrics.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/sim/monitor.hpp"

namespace ntom {
namespace {

/// 3 links, 4 paths; same shape as the windowed-counter tests.
topology make_topo() {
  topology t(3);
  t.add_link({.as_number = 1, .router_links = {0}, .edge = false});
  t.add_link({.as_number = 1, .router_links = {1}, .edge = true});
  t.add_link({.as_number = 2, .router_links = {2}, .edge = false});
  t.add_path({0});
  t.add_path({0, 1});
  t.add_path({1, 2});
  t.add_path({2});
  t.finalize();
  return t;
}

/// Deterministic masked chunk stream: tiny xorshift for the planes, a
/// rotating partial mask on every chunk except each third (unmasked
/// chunks mixed in on purpose — consumers must handle both).
std::vector<measurement_chunk> make_masked_chunks(std::size_t n,
                                                  std::size_t paths,
                                                  std::size_t links) {
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<measurement_chunk> chunks;
  std::size_t first = 0;
  for (std::size_t c = 0; c < n; ++c) {
    measurement_chunk chunk;
    chunk.first_interval = first;
    chunk.count = 3 + (c % 4);
    chunk.congested_paths = bit_matrix(chunk.count, paths);
    chunk.true_links = bit_matrix(chunk.count, links);
    if (c % 3 != 2) {
      bitvec mask(paths);
      mask.set(c % paths);
      mask.set((c + 1) % paths);
      chunk.observed_paths = mask;
    }
    for (std::size_t i = 0; i < chunk.count; ++i) {
      for (std::size_t p = 0; p < paths; ++p) {
        const bool observed =
            chunk.fully_observed() || chunk.observed_paths.test(p);
        if (observed && (next() & 3) == 0) chunk.congested_paths.set(i, p);
      }
      for (std::size_t e = 0; e < links; ++e) {
        if ((next() & 3) == 0) chunk.true_links.set(i, e);
      }
    }
    first += chunk.count;
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::vector<bitvec> make_sets(std::size_t paths) {
  std::vector<bitvec> sets;
  bitvec single(paths);
  single.set(0);
  sets.push_back(single);
  bitvec pair(paths);
  pair.set(1);
  pair.set(2);
  sets.push_back(pair);
  bitvec all(paths);
  all.flip();
  sets.push_back(all);
  sets.push_back(bitvec(paths));  // empty set: vacuously good.
  return sets;
}

TEST(MaskedPathsetCounterTest, CountsOnlyFullyObservedSets) {
  const topology t = make_topo();
  pathset_counter counter(make_sets(t.num_paths()));
  counter.begin(t, 5);

  // Chunk 1: mask {0, 1}, 2 intervals, no congestion.
  measurement_chunk a;
  a.first_interval = 0;
  a.count = 2;
  a.congested_paths = bit_matrix(2, 4);
  a.true_links = bit_matrix(2, 3);
  bitvec mask(4);
  mask.set(0);
  mask.set(1);
  a.observed_paths = mask;
  counter.consume(a);

  // Chunk 2: unmasked, 3 intervals, path 0 congested once.
  measurement_chunk b;
  b.first_interval = 2;
  b.count = 3;
  b.congested_paths = bit_matrix(3, 4);
  b.congested_paths.set(1, 0);
  b.true_links = bit_matrix(3, 3);
  counter.consume(b);
  counter.end();

  // Set {0}: observed in all 5 intervals, good in 4.
  EXPECT_EQ(counter.observed_intervals()[0], 5u);
  EXPECT_EQ(counter.counts()[0], 4u);
  // Set {1, 2}: path 2 unobserved in chunk 1, so only chunk 2 counts.
  EXPECT_EQ(counter.observed_intervals()[1], 3u);
  EXPECT_EQ(counter.counts()[1], 3u);
  // The full set is only observed in the unmasked chunk.
  EXPECT_EQ(counter.observed_intervals()[2], 3u);
  // The empty set is vacuously observed and good everywhere.
  EXPECT_EQ(counter.observed_intervals()[3], 5u);
  EXPECT_EQ(counter.counts()[3], 5u);

  // always-good needs >= 1 observation AND no violation: every path
  // was observed here (the unmasked chunk covers them), path 0 was
  // congested once.
  EXPECT_FALSE(counter.always_good_paths().test(0));
  EXPECT_TRUE(counter.always_good_paths().test(2));
  EXPECT_TRUE(counter.always_good_paths().test(3));
}

TEST(MaskedPathsetCounterTest, NeverObservedPathIsNotAlwaysGood) {
  const topology t = make_topo();
  pathset_counter counter;
  counter.begin(t, 2);
  measurement_chunk a;
  a.first_interval = 0;
  a.count = 2;
  a.congested_paths = bit_matrix(2, 4);
  bitvec mask(4);
  mask.set(0);
  a.observed_paths = mask;
  a.true_links = bit_matrix(2, 3);
  counter.consume(a);
  counter.end();
  // Path 0 was observed good; paths 1-3 were never observed, and an
  // unobserved path must not be declared always-good (it merely READS
  // as good because masking zeroes its congested bits).
  EXPECT_TRUE(counter.always_good_paths().test(0));
  for (std::size_t p = 1; p < 4; ++p) {
    EXPECT_FALSE(counter.always_good_paths().test(p)) << p;
  }
}

TEST(MaskedPathsetCounterTest, WindowEqualsFreshCounterAtEveryStep) {
  const topology t = make_topo();
  const std::vector<measurement_chunk> chunks =
      make_masked_chunks(9, t.num_paths(), t.num_links());

  for (const std::size_t window : {2u, 4u}) {
    pathset_counter windowed(make_sets(t.num_paths()));
    windowed.begin(t, 0);
    std::size_t oldest = 0;
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      windowed.consume(chunks[k]);
      if (k + 1 - oldest > window) windowed.retire(chunks[oldest++]);

      pathset_counter fresh(make_sets(t.num_paths()));
      fresh.begin(t, 0);
      for (std::size_t i = oldest; i <= k; ++i) fresh.consume(chunks[i]);

      EXPECT_EQ(windowed.intervals(), fresh.intervals())
          << "W=" << window << " step " << k;
      EXPECT_EQ(windowed.counts(), fresh.counts())
          << "W=" << window << " step " << k;
      EXPECT_EQ(windowed.observed_intervals(), fresh.observed_intervals())
          << "W=" << window << " step " << k;
      EXPECT_EQ(windowed.always_good_paths(), fresh.always_good_paths())
          << "W=" << window << " step " << k;
    }
  }
}

TEST(MaskedScorerTest, EmptyWindowAndUndefinedRatesReportZeroNotNaN) {
  const topology t = make_topo();

  // An empty window: no interval was ever scored.
  const observation_metrics empty = observation_scorer(t).result();
  EXPECT_EQ(empty.observed_intervals, 0u);
  EXPECT_EQ(empty.intervals_scored, 0u);
  EXPECT_EQ(empty.explained_rate, 0.0);
  EXPECT_EQ(empty.consistency_rate, 0.0);
  EXPECT_FALSE(std::isnan(empty.inferred_links_mean));

  // Every observed path congested: the interval has no consistency
  // sample (good = observed \ congested is empty); none congested: no
  // explained sample. Each undefined rate stays 0, never NaN.
  observation_scorer all_congested(t);
  bitvec inferred(t.num_links());
  inferred.set(0);
  bitvec mask(t.num_paths());
  mask.set(0);
  bitvec congested = mask;  // the single observed path is congested.
  all_congested.add_interval(inferred, congested, mask);
  const observation_metrics no_good = all_congested.result();
  EXPECT_EQ(no_good.observed_intervals, 1u);
  EXPECT_DOUBLE_EQ(no_good.explained_rate, 1.0);  // path 0 covers link 0.
  EXPECT_EQ(no_good.consistency_rate, 0.0);
  EXPECT_FALSE(std::isnan(no_good.consistency_rate));

  observation_scorer all_good(t);
  all_good.add_interval(inferred, bitvec(t.num_paths()), mask);
  const observation_metrics no_congested = all_good.result();
  EXPECT_EQ(no_congested.observed_intervals, 1u);
  EXPECT_EQ(no_congested.intervals_scored, 0u);
  EXPECT_EQ(no_congested.explained_rate, 0.0);
  // Path 0 contains inferred link 0 while observed good: contradicted.
  EXPECT_DOUBLE_EQ(no_congested.consistency_rate, 0.0);
}

TEST(MaskedScorerTest, PartialMaskRestrictsTheDenominators) {
  const topology t = make_topo();
  observation_scorer scorer(t);
  bitvec inferred(t.num_links());
  inferred.set(0);
  bitvec congested(t.num_paths());
  congested.set(0);  // path 0 covers link 0: explained.
  bitvec mask(t.num_paths());
  mask.set(0);
  mask.set(3);  // path 3 observed good and does not contain link 0.
  scorer.add_interval(inferred, congested, mask);
  // Paths 1-2 (which DO contain link 0, and would drag consistency to
  // 1/3 unmasked) are outside the mask and must not contradict.
  const observation_metrics m = scorer.result();
  EXPECT_EQ(m.observed_intervals, 1u);
  EXPECT_DOUBLE_EQ(m.explained_rate, 1.0);
  EXPECT_DOUBLE_EQ(m.consistency_rate, 1.0);
}

TEST(MaskedScorerTest, EmptyMaskEqualsUnmaskedOverload) {
  const topology t = make_topo();
  observation_scorer masked(t);
  observation_scorer sized(t);
  observation_scorer legacy(t);
  bitvec inferred(t.num_links());
  inferred.set(1);
  bitvec congested(t.num_paths());
  congested.set(1);
  masked.add_interval(inferred, congested, bitvec());
  // An all-zero mask IS the fully-observed sentinel (bitvec::empty()
  // means "no bit set"; probe_policy_sink rejects empty selections, so
  // a truly unobserved interval never reaches the scorer).
  sized.add_interval(inferred, congested, bitvec(t.num_paths()));
  legacy.add_interval(inferred, congested);
  const observation_metrics s = sized.result();
  EXPECT_EQ(s.observed_intervals, 1u);
  EXPECT_EQ(s.consistency_rate, legacy.result().consistency_rate);
  const observation_metrics a = masked.result();
  const observation_metrics b = legacy.result();
  EXPECT_EQ(a.explained_rate, b.explained_rate);
  EXPECT_EQ(a.consistency_rate, b.consistency_rate);
  EXPECT_EQ(a.observed_intervals, b.observed_intervals);
}

TEST(PolicyPlumbingTest, ReconcileLiftsValidatesAndForcesStreaming) {
  run_config config;
  config.topo = "toy";
  config.scenario =
      spec("random_congestion").with_option("policy", "uniform,frac=0.5");
  config.sim.intervals = 10;
  EXPECT_FALSE(config.stream.enabled);
  config.reconcile();
  EXPECT_EQ(config.plan.policy, "uniform,frac=0.5");
  EXPECT_TRUE(config.stream.enabled);

  // The scenario spec's policy option wins over an explicit plan.policy.
  run_config overridden = config;
  overridden.plan.policy = "round_robin,frac=0.1";
  overridden.reconcile();
  EXPECT_EQ(overridden.plan.policy, "uniform,frac=0.5");

  // Validation is eager: a bad policy spec fails at reconcile, not
  // mid-stream (plain scenario here — no spec option to win).
  run_config bad;
  bad.topo = "toy";
  bad.scenario = "random_congestion";
  bad.sim.intervals = 10;
  bad.plan.policy = "uniform,frac=0";
  EXPECT_THROW(bad.reconcile(), spec_error);
  bad.plan.policy = "no_such_policy";
  EXPECT_THROW(bad.reconcile(), spec_error);

  // Capture + policy composes since format v2 grew the observed-path
  // mask plane: reconcile just forces streamed execution.
  run_config capturing;
  capturing.topo = "toy";
  capturing.scenario = "random_congestion";
  capturing.sim.intervals = 10;
  capturing.plan.policy = "uniform,frac=0.5";
  capturing.capture.path = "masked.trc";
  capturing.reconcile();
  EXPECT_TRUE(capturing.stream.enabled);
}

TEST(PolicyPlumbingTest, MaterializeSinkRejectsMaskedChunks) {
  const topology t = make_topo();
  experiment_data data;
  materialize_sink store(data);
  store.begin(t, 2);
  measurement_chunk chunk;
  chunk.first_interval = 0;
  chunk.count = 2;
  chunk.congested_paths = bit_matrix(2, t.num_paths());
  chunk.true_links = bit_matrix(2, t.num_links());
  bitvec mask(t.num_paths());
  mask.set(0);
  chunk.observed_paths = mask;
  EXPECT_THROW(store.consume(chunk), std::logic_error);
}

TEST(PolicyPlumbingTest, EvalRejectsNonStreamingEstimatorsUnderPolicy) {
  run_config config;
  config.topo = "brite,n=10,hosts=30,paths=60";
  config.topo_seed = 3;
  config.scenario = "random_congestion";
  config.sim.intervals = 20;
  config.plan.policy = "uniform,frac=0.5";
  config.reconcile();
  const run_artifacts run = prepare_topology(config);

  // bayes-corr needs the materialized store, which has no mask plane.
  const estimator_cells cells(
      {"sparsity", "bayes-corr"},
      {/*boolean_metrics=*/true, /*link_error_metrics=*/false});
  EXPECT_THROW((void)cells.eval_all(config, run), spec_error);

  // The streaming-only subset works under the same config.
  const estimator_cells streaming_cells(
      {"sparsity", "bayes-indep"},
      {/*boolean_metrics=*/true, /*link_error_metrics=*/false});
  EXPECT_FALSE(streaming_cells.eval_all(config, run).empty());
}

}  // namespace
}  // namespace ntom

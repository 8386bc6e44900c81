// Streaming-vs-materialized equivalence: the same seed must produce
// bit-identical experiment views through every consumption path, at
// every chunk size — the ISSUE-3 reproducibility contract.
#include <gtest/gtest.h>

#include <vector>

#include "ntom/sim/monitor.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using namespace topogen;

struct sim_fixture {
  topology topo;
  congestion_model model;
  sim_params sim;
};

sim_fixture make_fixture(std::size_t intervals) {
  sim_fixture f{make_toy(toy_case::case1), {}, {}};
  scenario_params sp;
  sp.seed = 11;
  f.model = make_scenario(f.topo, "random_congestion", sp);
  f.sim.intervals = intervals;
  f.sim.packets_per_path = 60;  // real probing: noisy observations.
  f.sim.seed = 23;
  return f;
}

constexpr std::size_t chunk_sizes[] = {1, 7, 64, 100};

TEST(StreamingEquivalenceTest, MaterializedStoreBitIdenticalAtAnyChunk) {
  const sim_fixture f = make_fixture(100);
  const experiment_data reference = run_experiment(f.topo, f.model, f.sim);
  ASSERT_EQ(reference.intervals, 100u);

  for (const std::size_t chunk : chunk_sizes) {
    experiment_data streamed;
    materialize_sink sink(streamed);
    run_experiment_streaming(f.topo, f.model, f.sim, sink, chunk);
    EXPECT_EQ(streamed.intervals, reference.intervals) << "chunk " << chunk;
    EXPECT_TRUE(streamed.path_good == reference.path_good)
        << "chunk " << chunk;
    EXPECT_TRUE(streamed.true_links == reference.true_links)
        << "chunk " << chunk;
    EXPECT_EQ(streamed.always_good_paths, reference.always_good_paths)
        << "chunk " << chunk;
  }
}

TEST(StreamingEquivalenceTest, PathsetCounterMatchesObservations) {
  const sim_fixture f = make_fixture(100);
  const experiment_data data = run_experiment(f.topo, f.model, f.sim);
  const path_observations view(data);

  // A mixed family: empty set, singles, pairs, everything.
  std::vector<bitvec> family;
  family.emplace_back(f.topo.num_paths());
  for (path_id p = 0; p < f.topo.num_paths(); ++p) {
    bitvec single(f.topo.num_paths());
    single.set(p);
    family.push_back(single);
    for (path_id q = p + 1; q < f.topo.num_paths(); ++q) {
      bitvec pair = single;
      pair.set(q);
      family.push_back(pair);
    }
  }
  bitvec all(f.topo.num_paths());
  all.flip();
  family.push_back(all);

  for (const std::size_t chunk : chunk_sizes) {
    pathset_counter counter(family);
    run_experiment_streaming(f.topo, f.model, f.sim, counter, chunk);
    EXPECT_EQ(counter.intervals(), view.intervals());
    EXPECT_EQ(counter.always_good_paths(), view.always_good_paths())
        << "chunk " << chunk;
    ASSERT_EQ(counter.counts().size(), family.size());
    for (std::size_t i = 0; i < family.size(); ++i) {
      EXPECT_EQ(counter.counts()[i], view.count_all_good(family[i]))
          << "chunk " << chunk << " set " << family[i].to_string();
    }
  }
}

TEST(StreamingEquivalenceTest, CorrelatedScenariosBitIdenticalAtAnyChunk) {
  // The correlated-failure family carries sampler state across
  // intervals (group draws, Gilbert chains, drifting phases); every
  // replay at every chunk size must still reproduce the identical
  // stream — streaming is an execution strategy, never a model change.
  brite_params bp;
  bp.seed = 31;
  const topology topo = generate_brite(bp);
  for (const char* name : {"srlg", "gilbert", "hotspot_drift"}) {
    scenario_params sp;
    sp.seed = 13;
    sp.nonstationary = true;  // ignored where not applicable.
    sp.phase_length = 25;
    sp.num_phases = 4;
    const congestion_model model = make_scenario(topo, name, sp);

    sim_params sim;
    sim.intervals = 100;
    sim.packets_per_path = 60;
    sim.seed = 29;
    const experiment_data reference = run_experiment(topo, model, sim);

    for (const std::size_t chunk : chunk_sizes) {
      experiment_data streamed;
      materialize_sink sink(streamed);
      run_experiment_streaming(topo, model, sim, sink, chunk);
      EXPECT_TRUE(streamed.path_good == reference.path_good)
          << name << " chunk " << chunk;
      EXPECT_TRUE(streamed.true_links == reference.true_links)
          << name << " chunk " << chunk;
      EXPECT_EQ(streamed.always_good_paths, reference.always_good_paths)
          << name << " chunk " << chunk;
    }
  }
}

/// Copies every chunk of a pass.
class chunk_collector final : public measurement_sink {
 public:
  void begin(const topology&, std::size_t intervals) override {
    begun_intervals = intervals;
  }
  void consume(const measurement_chunk& chunk) override {
    chunks.push_back(chunk);
  }
  std::size_t begun_intervals = 0;
  std::vector<measurement_chunk> chunks;
};

TEST(StreamingEquivalenceTest, StoreReplayEqualsSimulatorChunks) {
  // The store replay is the inverse of materialize_sink: at any chunk
  // size its chunks are the simulator's, word for word. (A Brite
  // topology has >64 paths, so the column slices cross word borders.)
  brite_params bp;
  bp.seed = 31;
  const topology topo = generate_brite(bp);
  ASSERT_GT(topo.num_paths(), 64u);
  scenario_params sp;
  sp.seed = 13;
  const congestion_model model = make_scenario(topo, "random_congestion", sp);
  sim_params sim;
  sim.intervals = 150;
  sim.packets_per_path = 60;
  sim.seed = 29;
  const experiment_data data = run_experiment(topo, model, sim);

  for (const std::size_t chunk : {1ul, 7ul, 64ul, 100ul, 150ul, 256ul}) {
    chunk_collector simulated;
    run_experiment_streaming(topo, model, sim, simulated, chunk);
    chunk_collector replayed;
    replay_experiment(topo, data, replayed, chunk);
    EXPECT_EQ(replayed.begun_intervals, simulated.begun_intervals);
    ASSERT_EQ(replayed.chunks.size(), simulated.chunks.size())
        << "chunk " << chunk;
    for (std::size_t i = 0; i < simulated.chunks.size(); ++i) {
      const measurement_chunk& a = replayed.chunks[i];
      const measurement_chunk& b = simulated.chunks[i];
      EXPECT_EQ(a.first_interval, b.first_interval);
      EXPECT_EQ(a.count, b.count);
      EXPECT_TRUE(a.congested_paths == b.congested_paths)
          << "chunk " << chunk << " #" << i;
      EXPECT_TRUE(a.true_links == b.true_links)
          << "chunk " << chunk << " #" << i;
      EXPECT_TRUE(a.fully_observed());
    }
  }
}

TEST(StreamingEquivalenceTest, FanoutFeedsAllConsumersOnePass) {
  const sim_fixture f = make_fixture(100);
  const experiment_data reference = run_experiment(f.topo, f.model, f.sim);

  experiment_data materialized;
  materialize_sink store(materialized);
  pathset_counter counter;
  fanout_sink fanout({&store, &counter});
  run_experiment_streaming(f.topo, f.model, f.sim, fanout, 7);

  EXPECT_TRUE(materialized.path_good == reference.path_good);
  EXPECT_EQ(counter.always_good_paths(), reference.always_good_paths);
}

}  // namespace
}  // namespace ntom

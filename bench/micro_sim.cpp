// Microbenchmarks for the measurement simulator: interval sampling,
// probe sampling, and whole-experiment throughput (the simulator
// dominates wall-clock at paper scale — 1500 paths x 1000 intervals x
// 200 packets).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/topogen/brite.hpp"

namespace {

void bm_sample_interval(benchmark::State& state) {
  ntom::topogen::brite_params params;
  params.seed = 3;
  const auto topo = ntom::topogen::generate_brite(params);
  ntom::scenario_params sp;
  sp.seed = 5;
  const auto model = ntom::make_scenario(
      topo, "random_congestion", sp);
  ntom::link_state_sampler sampler(topo, model, 17);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample_interval(t++));
  }
}
BENCHMARK(bm_sample_interval);

void bm_run_experiment(benchmark::State& state) {
  ntom::topogen::brite_params params;
  params.seed = 3;
  const auto topo = ntom::topogen::generate_brite(params);
  ntom::scenario_params sp;
  sp.seed = 5;
  const auto model = ntom::make_scenario(
      topo, "random_congestion", sp);
  ntom::sim_params sim;
  sim.intervals = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntom::run_experiment(topo, model, sim));
  }
}
BENCHMARK(bm_run_experiment)->Arg(50)->Arg(200);

void bm_run_experiment_oracle(benchmark::State& state) {
  ntom::topogen::brite_params params;
  params.seed = 3;
  const auto topo = ntom::topogen::generate_brite(params);
  ntom::scenario_params sp;
  sp.seed = 5;
  const auto model = ntom::make_scenario(
      topo, "random_congestion", sp);
  ntom::sim_params sim;
  sim.intervals = static_cast<std::size_t>(state.range(0));
  sim.oracle_monitor = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntom::run_experiment(topo, model, sim));
  }
}
BENCHMARK(bm_run_experiment_oracle)->Arg(50)->Arg(200);

/// One interval's path survival rates for `paths` paths (a default
/// Brite run has 240); all lie in (0, 1), so every path consumes draws.
std::vector<double> survival_rates(std::size_t paths) {
  ntom::rng r(9);
  std::vector<double> p(paths);
  for (double& x : p) x = r.uniform(0.6, 1.0);
  return p;
}

constexpr std::size_t kPackets = 200;

// The per-path rng::binomial loop binomial_batch replaces, over
// state.range(0) paths of 200 packets; items are Bernoulli draws, so
// items/s converts to ns per draw.
void bm_binomial_loop(benchmark::State& state) {
  const std::vector<double> p =
      survival_rates(static_cast<std::size_t>(state.range(0)));
  std::vector<std::size_t> out(p.size());
  ntom::rng r(11);
  for (auto _ : state) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      out[i] = r.binomial(kPackets, p[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.size() * kPackets));
}
BENCHMARK(bm_binomial_loop)->Arg(240);

// The same counts through the lane-parallel sampler at the active
// dispatch level (NTOM_SIMD picks another), built for the path count
// as run_experiment_streaming builds it: 240 paths is the default
// Brite network, 450 about fig3_brite's.
void bm_binomial_batch(benchmark::State& state) {
  const std::vector<double> p =
      survival_rates(static_cast<std::size_t>(state.range(0)));
  std::vector<std::size_t> out(p.size());
  ntom::binomial_batch batch(kPackets, p.size());
  ntom::rng r(11);
  for (auto _ : state) {
    batch.draw(r, p.data(), p.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.size() * kPackets));
}
BENCHMARK(bm_binomial_batch)->Arg(240)->Arg(450)->Arg(600);

}  // namespace

BENCHMARK_MAIN();

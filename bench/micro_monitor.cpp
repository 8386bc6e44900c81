// Microbenchmark for the columnar observation store (ISSUE 3): fused
// bit_matrix count_all_good kernels vs the legacy per-bitvec loop, and
// the measurement-memory footprint of the three execution layouts
// (legacy three-view, packed columnar store, streamed counters).
//
//   ./micro_monitor                      # defaults: T = 100000
//   ./micro_monitor --intervals=200000 --queries=6000 --json
//
// --json[=<path>] writes BENCH_micro_monitor.json in the same summary
// shape as the figure benches. The headline cells are
// fused/speedup_vs_legacy (>= 2x expected) and
// memory/reduction_packed_x / reduction_streaming_x (>= 2x expected at
// T = 10^5).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ntom/exp/batch.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/rng.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// The pre-columnar count_all_good: copy the first member's interval
/// set, AND the rest in, popcount — one heap allocation per query plus
/// one extra pass over the words.
std::size_t legacy_count_all_good(const std::vector<ntom::bitvec>& good,
                                  std::size_t intervals,
                                  const ntom::bitvec& path_set) {
  bool first = true;
  ntom::bitvec acc;
  path_set.for_each([&](std::size_t p) {
    if (first) {
      acc = good[p];
      first = false;
    } else {
      acc &= good[p];
    }
  });
  if (first) return intervals;
  return acc.count();
}

std::size_t bitvec_heap_bytes(const ntom::bitvec& b) {
  return b.num_words() * sizeof(std::uint64_t) + sizeof(ntom::bitvec);
}

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const auto intervals = opts.get_size("intervals", 100000);
  const auto num_queries = opts.get_size("queries", 4000);
  const auto reps = opts.get_size("reps", 3);

  // One realistic monitored deployment; oracle monitoring keeps the
  // simulation itself off the clock at T = 10^5.
  run_config config;
  config.topo = "brite,n=10,hosts=30,paths=60";
  config.topo_seed = 5;
  config.scenario = "random_congestion";
  config.scenario_opts.seed = 7;
  config.sim.intervals = intervals;
  config.sim.oracle_monitor = true;
  config.sim.seed = 9;
  const run_artifacts run = prepare_run(config);
  const std::size_t paths = run.topo().num_paths();

  // Legacy three-view layout, reconstructed exactly as the pre-columnar
  // experiment_data stored it (per-bitvec heap allocations included).
  std::vector<bitvec> legacy_path_good;
  legacy_path_good.reserve(paths);
  for (std::size_t p = 0; p < paths; ++p) {
    legacy_path_good.push_back(run.data.path_good.row_copy(p));
  }
  std::vector<bitvec> legacy_congested;
  std::vector<bitvec> legacy_true_links;
  legacy_congested.reserve(intervals);
  legacy_true_links.reserve(intervals);
  for (std::size_t t = 0; t < intervals; ++t) {
    legacy_congested.push_back(run.data.congested_paths_at(t));
    legacy_true_links.push_back(run.data.true_links_at(t));
  }

  // Deterministic query workload: singles, pairs, and triples over the
  // monitored paths (the shapes Probability Computation floods).
  std::vector<bitvec> queries;
  queries.reserve(num_queries);
  rng rand(17);
  for (std::size_t i = 0; i < num_queries; ++i) {
    bitvec q(paths);
    const std::size_t members = 1 + i % 3;
    for (std::size_t m = 0; m < members; ++m) {
      q.set(rand.next_u64() % paths);
    }
    queries.push_back(std::move(q));
  }

  const path_observations obs(run.data);

  // Correctness guard before timing anything.
  std::size_t checksum = 0;
  for (const bitvec& q : queries) {
    const std::size_t fused = obs.count_all_good(q);
    const std::size_t legacy = legacy_count_all_good(legacy_path_good,
                                                     intervals, q);
    if (fused != legacy) {
      std::fprintf(stderr, "kernel mismatch: fused %zu legacy %zu on %s\n",
                   fused, legacy, q.to_string().c_str());
      return 1;
    }
    checksum += fused;
  }

  double legacy_seconds = 0.0;
  double fused_seconds = 0.0;
  std::size_t sink = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = clock_type::now();
    for (const bitvec& q : queries) {
      sink += legacy_count_all_good(legacy_path_good, intervals, q);
    }
    legacy_seconds += seconds_since(t0);
    const auto t1 = clock_type::now();
    for (const bitvec& q : queries) sink += obs.count_all_good(q);
    fused_seconds += seconds_since(t1);
  }
  const double total_queries = static_cast<double>(num_queries * reps);
  const double legacy_mqps = total_queries / legacy_seconds / 1e6;
  const double fused_mqps = total_queries / fused_seconds / 1e6;
  const double speedup = legacy_seconds / fused_seconds;

  // Measurement-memory accounting, measured from the live structures.
  std::size_t legacy_bytes = 0;
  for (const bitvec& b : legacy_path_good) legacy_bytes += bitvec_heap_bytes(b);
  for (const bitvec& b : legacy_congested) legacy_bytes += bitvec_heap_bytes(b);
  for (const bitvec& b : legacy_true_links) {
    legacy_bytes += bitvec_heap_bytes(b);
  }
  const std::size_t packed_bytes = run.data.path_good.memory_bytes() +
                                   run.data.true_links.memory_bytes();

  // Streamed peak: the in-flight chunk pair plus the online counters of
  // the full query family (what a streaming fit retains instead of any
  // full view).
  run_config streamed_config = config;
  streamed_config.stream.enabled = true;
  pathset_counter counter(queries);
  const auto t2 = clock_type::now();
  stream_experiment(run, streamed_config, counter);
  const double streaming_pass_seconds = seconds_since(t2);
  std::size_t streaming_bytes = 0;
  {
    const bit_matrix chunk_paths(streamed_config.stream.chunk_intervals, paths);
    const bit_matrix chunk_links(streamed_config.stream.chunk_intervals,
                                 run.topo().num_links());
    streaming_bytes = 2 * (chunk_paths.memory_bytes() +
                           chunk_links.memory_bytes());  // chunk + transpose.
    for (const bitvec& q : counter.sets()) {
      streaming_bytes += bitvec_heap_bytes(q);
    }
    streaming_bytes += counter.counts().capacity() * sizeof(std::size_t);
  }
  const double reduction_packed = static_cast<double>(legacy_bytes) /
                                  static_cast<double>(packed_bytes);
  const double reduction_streaming = static_cast<double>(legacy_bytes) /
                                     static_cast<double>(streaming_bytes);

  std::printf("micro_monitor: %zu paths x %zu intervals, %zu queries x %zu "
              "reps (checksum %zu, sink %zu)\n\n",
              paths, intervals, num_queries, reps, checksum, sink);
  std::printf("  count_all_good  legacy per-bitvec loop  %8.2f Mq/s\n",
              legacy_mqps);
  std::printf("  count_all_good  fused bit_matrix kernel %8.2f Mq/s\n",
              fused_mqps);
  std::printf("  speedup fused vs legacy                 %8.2fx\n\n", speedup);
  std::printf("  measurement memory  legacy three views  %10zu bytes\n",
              legacy_bytes);
  std::printf("  measurement memory  packed store        %10zu bytes (%.2fx "
              "smaller)\n",
              packed_bytes, reduction_packed);
  std::printf("  measurement memory  streamed counters   %10zu bytes (%.2fx "
              "smaller)\n",
              streaming_bytes, reduction_streaming);
  std::printf("  streaming pass over T=%zu: %.3f s\n", intervals,
              streaming_pass_seconds);

  batch_report report;
  run_result result;
  result.index = 0;
  result.label = "micro_monitor";
  result.seconds = legacy_seconds + fused_seconds + streaming_pass_seconds;
  result.measurements = {
      {"legacy", "count_all_good_mqps", legacy_mqps},
      {"fused", "count_all_good_mqps", fused_mqps},
      {"fused", "speedup_vs_legacy", speedup},
      {"memory", "legacy_three_view_bytes", static_cast<double>(legacy_bytes)},
      {"memory", "packed_store_bytes", static_cast<double>(packed_bytes)},
      {"memory", "streaming_peak_bytes", static_cast<double>(streaming_bytes)},
      {"memory", "reduction_packed_x", reduction_packed},
      {"memory", "reduction_streaming_x", reduction_streaming},
      {"streaming", "pass_seconds", streaming_pass_seconds},
  };
  report.total_seconds = result.seconds;
  report.add(std::move(result));
  maybe_write_bench_json(report, opts, "micro_monitor",
                         {{"paths", std::to_string(paths)},
                          {"intervals", std::to_string(intervals)},
                          {"queries", std::to_string(num_queries)},
                          {"reps", std::to_string(reps)}});
  return 0;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv,
                       {"intervals", "queries", "reps", "json"},
                       run);
}

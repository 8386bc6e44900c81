// Microbenchmark for the online tomography service (ISSUE 6): snapshot
// query throughput while an ingest thread slides the measurement window
// and refits, plus the deterministic contracts the bench gate holds —
// the windowed fit stays bit-identical to a fresh one-shot fit over the
// same chunks, no reader ever observes a torn snapshot, and the window
// state stays O(window), not O(stream).
//
//   ./micro_service                      # defaults: T = 4000, 3 readers
//   ./micro_service --intervals=8000 --readers=4 --json
//
// --json[=<path>] writes BENCH_micro_service.json. Gated cells:
// service/window_fit_identical, readers/untorn_identical, and
// service/window_state_bytes (exact). Throughput cells (mqps,
// chunks/sec) are recorded but never gated.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "ntom/exp/batch.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/service/service.hpp"
#include "ntom/util/flags.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Buffers a full streamed pass so the bench can replay it through the
/// service and independently slice the final window for the reference
/// fit.
class chunk_collector final : public ntom::measurement_sink {
 public:
  void consume(const ntom::measurement_chunk& chunk) override {
    chunks.push_back(chunk);
  }
  std::vector<ntom::measurement_chunk> chunks;
};

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const auto intervals = opts.get_size("intervals", 4000);
  const auto chunk_size = opts.get_size("chunk", 64);
  const auto window = opts.get_size("window", 8);
  const auto num_readers = opts.get_size("readers", 3);

  run_config config;
  config.topo = "brite,n=12,hosts=36,paths=72";
  config.topo_seed = 3;
  config.scenario = "hotspot_drift";
  config.scenario_opts.seed = 31;
  config.scenario_opts.phase_length = 40;
  config.sim.intervals = intervals;
  config.sim.packets_per_path = 40;
  config.sim.seed = 57;
  config.stream.enabled = true;
  config.stream.chunk_intervals = chunk_size;

  const run_artifacts run = prepare_topology(config);
  chunk_collector collected;
  stream_experiment(run, config, collected);
  const std::size_t total_chunks = collected.chunks.size();

  service_config cfg;
  cfg.estimator = "independence";
  cfg.window_chunks = window;
  cfg.refit_every = 1;
  tomography_service service(cfg);
  service.begin_epoch(run.topo_ptr);

  // Readers hammer the full query surface off whatever snapshot is
  // current while the main thread ingests — the service's concurrency
  // contract, measured instead of merely asserted.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (std::size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&] {
      std::uint64_t local = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const service_snapshot> snap =
            service.snapshot();
        if (snap == nullptr) continue;
        if (!snap->verify()) torn.fetch_add(1, std::memory_order_relaxed);
        (void)snap->congested_links(0.5);
        (void)snap->confidence();
        for (link_id e = 0; e < snap->topo().num_links(); ++e) {
          (void)snap->link_estimate(e);
        }
        ++local;
      }
      queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  const auto t0 = clock_type::now();
  for (const measurement_chunk& chunk : collected.chunks) {
    service.ingest(chunk);
  }
  service.flush();
  const double ingest_seconds = seconds_since(t0);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Deterministic contract 1: the final published window fit equals a
  // fresh one-shot streaming fit over exactly the window's chunks.
  const std::shared_ptr<const service_snapshot> last = service.snapshot();
  if (last == nullptr) {
    std::fprintf(stderr, "no snapshot after ingest\n");
    return 1;
  }
  const std::size_t begin =
      total_chunks > window ? total_chunks - window : 0;
  const std::unique_ptr<estimator> reference = make_estimator(cfg.estimator);
  std::size_t ref_intervals = 0;
  for (std::size_t i = begin; i < total_chunks; ++i) {
    ref_intervals += collected.chunks[i].count;
  }
  reference->begin_fit(run.topo(), ref_intervals);
  for (std::size_t i = begin; i < total_chunks; ++i) {
    reference->consume(collected.chunks[i]);
  }
  reference->end_fit();
  const link_estimates expected = reference->links();
  bool identical = last->links().size() == expected.congestion.size();
  for (link_id e = 0; identical && e < run.topo().num_links(); ++e) {
    const snapshot_link& got = last->link_estimate(e);
    identical = got.estimated == expected.estimated.test(e) &&
                (!got.estimated || got.congestion == expected.congestion[e]);
  }
  if (!identical) {
    std::fprintf(stderr, "windowed fit diverged from one-shot reference\n");
    return 1;
  }

  // Deterministic contract 2: bounded window state. The retained chunk
  // matrices are the service's whole measurement footprint.
  std::size_t window_state_bytes = 0;
  for (std::size_t i = begin; i < total_chunks; ++i) {
    window_state_bytes += collected.chunks[i].congested_paths.memory_bytes() +
                          collected.chunks[i].true_links.memory_bytes();
  }

  const double total_queries = static_cast<double>(queries.load());
  const double mqps = total_queries / ingest_seconds / 1e6;
  const double chunks_per_sec =
      static_cast<double>(total_chunks) / ingest_seconds;
  const service_stats& stats = service.stats();

  std::printf("micro_service: %zu links, %zu chunks x %zu intervals, "
              "window %zu, %zu readers\n\n",
              run.topo().num_links(), total_chunks, chunk_size, window,
              num_readers);
  std::printf("  ingest + refit every chunk      %8.2f chunks/s (%.3f s)\n",
              chunks_per_sec, ingest_seconds);
  std::printf("  concurrent snapshot queries     %8.3f Mq/s across %zu "
              "readers\n",
              mqps, num_readers);
  std::printf("  torn snapshots observed         %8llu\n",
              static_cast<unsigned long long>(torn.load()));
  std::printf("  window fit == one-shot fit      %8s\n",
              identical ? "yes" : "NO");
  std::printf("  window measurement state        %8zu bytes (%zu chunks)\n",
              window_state_bytes, total_chunks - begin);

  batch_report report;
  run_result result;
  result.index = 0;
  result.label = "micro_service";
  result.seconds = ingest_seconds;
  result.measurements = {
      {"ingest", "chunks_per_sec", chunks_per_sec},
      {"ingest", "pass_seconds", ingest_seconds},
      {"queries", "concurrent_mqps", mqps},
      {"queries", "torn", static_cast<double>(torn.load())},
      {"readers", "untorn_identical", torn.load() == 0 ? 1.0 : 0.0},
      {"service", "window_fit_identical", identical ? 1.0 : 0.0},
      {"service", "window_state_bytes",
       static_cast<double>(window_state_bytes)},
      {"service", "refits", static_cast<double>(stats.refits.load())},
      {"service", "chunks_retired",
       static_cast<double>(stats.chunks_retired.load())},
  };
  report.total_seconds = result.seconds;
  report.add(std::move(result));
  maybe_write_bench_json(report, opts, "micro_service",
                         {{"intervals", std::to_string(intervals)},
                          {"chunk", std::to_string(chunk_size)},
                          {"window", std::to_string(window)},
                          {"readers", std::to_string(num_readers)}});
  return torn.load() == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv,
                       {"intervals", "chunk", "window", "readers", "json"},
                       run);
}

// Microbenchmark + self-check for the trace capture/replay subsystem:
// capture overhead over a plain simulation pass, replay
// throughput vs re-simulating, bytes per interval of the on-disk
// format, and a bit-identity assertion — a captured corpus replayed
// through the estimator pipeline must reproduce the live run's
// measurement rows exactly.
//
//   ./micro_trace                       # defaults: T = 20000
//   ./micro_trace --intervals=50000 --json
//
// --json[=<path>] writes BENCH_micro_trace.json. Gated headline cells:
// trace/file_bytes, trace/bytes_per_interval (the written file),
// trace/raw_file_bytes, trace/raw_bytes_per_interval (the same file
// with every plane stored raw, computed exactly from its per-plane
// stats — the pair pins the format's compression win; any drift is a
// format change), and replay/identical (the self-check). Timing cells
// (capture_overhead_pct, speedup_vs_simulate_x, *_seconds) are recorded
// for trend reading, never gated.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ntom/exp/evals.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/trace/corpus.hpp"
#include "ntom/trace/trace_reader.hpp"
#include "ntom/trace/trace_writer.hpp"
#include "ntom/util/flags.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

struct null_sink final : ntom::measurement_sink {
  void consume(const ntom::measurement_chunk& chunk) override {
    intervals += chunk.count;
  }
  std::size_t intervals = 0;
};

bool rows_identical(const std::vector<ntom::measurement>& a,
                    const std::vector<ntom::measurement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].series != b[i].series || a[i].metric != b[i].metric ||
        a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const auto intervals = opts.get_size("intervals", 20000);
  const auto reps = opts.get_size("reps", 3);
  const std::string trace_path =
      opts.get_string("trace", "micro_trace_corpus.trc");

  run_config config;
  config.topo = "brite,n=10,hosts=30,paths=60";
  config.topo_seed = 5;
  config.scenario = "no_independence";
  config.scenario_opts.seed = 7;
  config.sim.intervals = intervals;
  config.sim.oracle_monitor = true;  // measure the pipeline, not probing.
  config.sim.seed = 9;
  const run_artifacts live = prepare_topology(config);

  // Warm-up pass off the clock (page cache, branch predictors) so the
  // first timed simulate pass is not penalized vs the capture pass.
  {
    null_sink warmup;
    stream_experiment(live, config, warmup);
  }

  // Pass timings: plain simulation vs simulation + capture vs replay.
  // Each pass keeps the fastest rep: min-over-reps rejects scheduler
  // noise, which otherwise swamps the few-percent capture delta on a
  // busy host.
  double simulate_seconds = 1e300;
  double capture_seconds = 1e300;
  std::uint64_t file_bytes = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    null_sink devnull;
    const auto t0 = clock_type::now();
    stream_experiment(live, config, devnull);
    simulate_seconds = std::min(simulate_seconds, seconds_since(t0));

    run_config capture_config = config;
    capture_config.capture.path = trace_path;
    const auto writer = make_capture_writer(capture_config, live);
    null_sink devnull2;
    fanout_sink fanout;
    fanout.add(&devnull2);
    fanout.add(writer.get());
    const auto t1 = clock_type::now();
    stream_experiment(live, config, fanout);
    capture_seconds = std::min(capture_seconds, seconds_since(t1));
    file_bytes = writer->bytes_written();
  }

  // All-raw size for the compression headline: a raw plane section
  // stores exactly its decoded bytes, and every other byte of the file
  // (header, section heads, CRCs, index, trailer) is the same either
  // way, so the per-plane sums give that size exactly.
  const corpus_file_stat stat = stat_trace_file(trace_path);
  const std::uint64_t raw_file_bytes =
      stat.file_bytes + stat.decoded_bytes - stat.encoded_bytes;

  const trace_reader reader(trace_path);
  double replay_seconds = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    null_sink devnull;
    const auto t2 = clock_type::now();
    reader.stream(devnull, default_chunk_intervals);
    replay_seconds = std::min(replay_seconds, seconds_since(t2));
    if (devnull.intervals != intervals) {
      std::fprintf(stderr, "replay interval count mismatch\n");
      return 1;
    }
  }
  const double overhead_pct =
      100.0 * (capture_seconds - simulate_seconds) / simulate_seconds;
  const double replay_speedup = simulate_seconds / replay_seconds;
  const double bytes_per_interval =
      static_cast<double>(file_bytes) / static_cast<double>(intervals);
  const double raw_bytes_per_interval =
      static_cast<double>(raw_file_bytes) / static_cast<double>(intervals);
  const double compression_x =
      static_cast<double>(raw_file_bytes) / static_cast<double>(file_bytes);

  // Self-check: the captured corpus replayed through the estimator
  // pipeline (at a different chunk size) must reproduce the live run's
  // rows bit-for-bit.
  const std::vector<estimator_spec> estimators = {"sparsity", "independence"};
  const estimator_cells cells(
      estimators, {.boolean_metrics = true, .link_error_metrics = false});
  const run_artifacts live_run = prepare_run(config);
  const auto live_rows = cells.eval_all(config, live_run);

  run_config replay_config;
  replay_config.scenario = spec("trace").with_option("file", trace_path);
  replay_config.stream.chunk_intervals = 97;  // never the capture granularity.
  const run_artifacts replay_run = prepare_run(replay_config);
  const auto replay_rows = cells.eval_all(replay_config, replay_run);
  const bool identical = rows_identical(live_rows, replay_rows);

  std::printf("micro_trace: %zu paths x %zu intervals, %zu reps\n\n",
              live.topo().num_paths(), intervals, reps);
  std::printf("  simulate pass              %8.3f s\n", simulate_seconds);
  std::printf("  simulate + capture pass    %8.3f s  (%.1f%% overhead)\n",
              capture_seconds, overhead_pct);
  std::printf("  replay pass                %8.3f s  (%.2fx vs simulate)\n",
              replay_seconds, replay_speedup);
  std::printf("  trace file (negotiated)    %8llu bytes (%.2f per interval)\n",
              static_cast<unsigned long long>(file_bytes),
              bytes_per_interval);
  std::printf("  trace file (raw planes)    %8llu bytes (%.2f per interval, "
              "compression x%.2f)\n",
              static_cast<unsigned long long>(raw_file_bytes),
              raw_bytes_per_interval, compression_x);
  std::printf("  capture->replay estimator rows %s\n",
              identical ? "BIT-IDENTICAL" : "DIFFER (BUG)");
  if (!identical) return 1;

  batch_report report;
  run_result result;
  result.index = 0;
  result.label = "micro_trace";
  result.seconds = simulate_seconds + capture_seconds + replay_seconds;
  result.measurements = {
      {"simulate", "pass_seconds", simulate_seconds},
      {"capture", "pass_seconds", capture_seconds},
      {"capture", "capture_overhead_pct", overhead_pct},
      {"replay", "pass_seconds", replay_seconds},
      {"replay", "speedup_vs_simulate_x", replay_speedup},
      {"replay", "identical", identical ? 1.0 : 0.0},
      {"trace", "file_bytes", static_cast<double>(file_bytes)},
      {"trace", "bytes_per_interval", bytes_per_interval},
      {"trace", "raw_file_bytes", static_cast<double>(raw_file_bytes)},
      {"trace", "raw_bytes_per_interval", raw_bytes_per_interval},
      {"trace", "compression_x", compression_x},
  };
  report.total_seconds = result.seconds;
  report.add(std::move(result));
  maybe_write_bench_json(report, opts, "micro_trace",
                         {{"intervals", std::to_string(intervals)},
                          {"reps", std::to_string(reps)}});
  std::remove(trace_path.c_str());
  return 0;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv, {"intervals", "reps", "trace", "json"}, run);
}

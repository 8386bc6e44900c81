// The benchmark's workloads. Each one sets up (several times, so the
// set-up time is a median), runs one untimed warm-up operation, then runs
// its operation in a closed loop for the requested number of seconds,
// checking every output as it goes.
// run.py turns the raw samples in `results` into the reported metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

struct run_options {
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;       ///< alternate untraced and traced operations.
  std::size_t threads = 4;  ///< grid workers (capped at the core count).
  std::string tmp_dir;      ///< where the temporary .trc files go.
};

/// One accuracy cell of a grid operation's report.
struct accuracy_cell {
  std::string label;
  std::string series;
  std::string metric;
  double value = 0.0;
};

struct results {
  std::vector<double> setup_s;  ///< one sample per set-up repetition.
  std::vector<double> op_s;     ///< untraced operation latencies.
  /// CPU times of the untraced operations, over the threads that run
  /// them (the whole process for a grid, the ingest thread for the
  /// service).
  std::vector<double> op_cpu_s;
  /// (untraced, traced) CPU times of the same operation (traced runs).
  std::vector<std::pair<double, double>> pairs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages.
  /// Accuracy cells of the warm-up operation (sub-seed 0), compared with
  /// the recorded expectations for known seeds.
  std::vector<accuracy_cell> cells;
  /// Layer counters (per traced operation unless named otherwise).
  std::map<std::string, double> counters;

  void fail(const std::string& why);
};

struct workload {
  const char* name;
  const char* why;
  results (*run)(const run_options& options);
};

[[nodiscard]] const std::vector<workload>& workloads();

}  // namespace bench

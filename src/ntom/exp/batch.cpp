#include "ntom/exp/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "ntom/util/csv.hpp"
#include "ntom/util/json.hpp"
#include "ntom/util/rng.hpp"
#include "ntom/util/stats.hpp"

namespace ntom {

run_config derive_run_seeds(run_config config, std::uint64_t base_seed,
                            std::size_t index, std::size_t topo_group) {
  // Decorrelate streams: offset the splitmix64 state by a golden-ratio
  // multiple of (key + 1) so adjacent keys land far apart, and salt
  // the run stream so it never collides with the topology stream even
  // when topo_group == index.
  constexpr std::uint64_t golden = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t run_salt = 0xd1b54a32d192ed03ULL;
  std::uint64_t topo_state =
      base_seed + golden * (static_cast<std::uint64_t>(topo_group) + 1);
  config.topo_seed = splitmix64(topo_state);
  std::uint64_t run_state = (base_seed ^ run_salt) +
                            golden * (static_cast<std::uint64_t>(index) + 1);
  config.scenario_opts.seed = splitmix64(run_state);
  config.sim.seed = splitmix64(run_state);
  return config;
}

void batch_report::add(run_result result) {
  const auto at = std::upper_bound(
      runs_.begin(), runs_.end(), result.index,
      [](std::size_t index, const run_result& r) { return index < r.index; });
  runs_.insert(at, std::move(result));
}

std::vector<metric_summary> batch_report::summarize() const {
  // Cell order = first appearance over index-sorted runs: deterministic
  // regardless of which thread finished first.
  std::vector<metric_summary> out;
  std::vector<std::vector<double>> samples;
  auto cell_of = [&](const std::string& label, const std::string& series,
                     const std::string& metric) -> std::size_t {
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].label == label && out[i].series == series &&
          out[i].metric == metric) {
        return i;
      }
    }
    out.push_back({label, series, metric, 0, 0, 0, 0, 0, 0, 0});
    samples.emplace_back();
    return out.size() - 1;
  };

  for (const run_result& run : runs_) {
    for (const measurement& m : run.measurements) {
      samples[cell_of(run.label, m.series, m.metric)].push_back(m.value);
    }
  }

  for (std::size_t i = 0; i < out.size(); ++i) {
    running_stats stats;
    for (const double x : samples[i]) stats.add(x);
    out[i].runs = stats.count();
    out[i].mean = stats.mean();
    out[i].stddev = stats.stddev();
    out[i].min = stats.min();
    out[i].max = stats.max();
    if (!samples[i].empty()) {
      const empirical_cdf cdf(samples[i]);
      out[i].p50 = cdf.quantile(0.5);
      out[i].p90 = cdf.quantile(0.9);
    }
  }
  return out;
}

double batch_report::mean_of(const std::string& label,
                             const std::string& series,
                             const std::string& metric) const {
  running_stats stats;
  for (const run_result& run : runs_) {
    if (run.label != label) continue;
    for (const measurement& m : run.measurements) {
      if (m.series == series && m.metric == metric) stats.add(m.value);
    }
  }
  return stats.mean();
}

void batch_report::write_runs_csv(const std::string& path) const {
  csv_writer csv(path);
  csv.write_header({"run", "label", "series", "metric", "value", "seconds"});
  for (const run_result& run : runs_) {
    for (const measurement& m : run.measurements) {
      csv.write_row({std::to_string(run.index), run.label, m.series, m.metric,
                     std::to_string(m.value), std::to_string(run.seconds)});
    }
  }
}

namespace {

// json_escape comes from util/json.hpp (shared with the registry
// catalog emitter).

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void batch_report::write_summary_json(
    const std::string& path, const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& params) const {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"" << json_escape(bench) << "\",\n  \"params\": {";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << json_escape(params[i].first) << "\": \""
        << json_escape(params[i].second) << '"';
  }
  out << "},\n  \"total_seconds\": " << json_number(total_seconds)
      << ",\n  \"runs\": " << runs_.size() << ",\n  \"cells\": [";
  const std::vector<metric_summary> cells = summarize();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const metric_summary& c = cells[i];
    out << (i > 0 ? ",\n    " : "\n    ") << "{\"label\": \""
        << json_escape(c.label) << "\", \"series\": \"" << json_escape(c.series)
        << "\", \"metric\": \"" << json_escape(c.metric)
        << "\", \"runs\": " << c.runs << ", \"mean\": " << json_number(c.mean)
        << ", \"stddev\": " << json_number(c.stddev)
        << ", \"min\": " << json_number(c.min)
        << ", \"max\": " << json_number(c.max)
        << ", \"p50\": " << json_number(c.p50)
        << ", \"p90\": " << json_number(c.p90) << "}";
  }
  out << "\n  ]\n}\n";
}

void batch_report::write_summary_csv(const std::string& path) const {
  csv_writer csv(path);
  csv.write_header({"label", "series", "metric", "runs", "mean", "stddev",
                    "min", "max", "p50", "p90"});
  for (const metric_summary& s : summarize()) {
    csv.write_row({s.label, s.series, s.metric, std::to_string(s.runs),
                   std::to_string(s.mean), std::to_string(s.stddev),
                   std::to_string(s.min), std::to_string(s.max),
                   std::to_string(s.p50), std::to_string(s.p90)});
  }
}

std::vector<measurement> inference_measurements(
    const std::string& series, const inference_metrics& metrics) {
  return {{series, "detection_rate", metrics.detection_rate},
          {series, "false_positive_rate", metrics.false_positive_rate}};
}

std::vector<measurement> observation_measurements(
    const std::string& series, const observation_metrics& metrics) {
  return {{series, "explained_rate", metrics.explained_rate},
          {series, "consistency_rate", metrics.consistency_rate},
          {series, "inferred_links_mean", metrics.inferred_links_mean}};
}

}  // namespace ntom

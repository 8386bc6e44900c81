// ntom_benchmark: runs one benchmark workload and writes its raw samples
// as JSON. run.py builds this binary, runs it once per workload in its
// own process, and turns the samples into the reported metrics.
//
//   ntom_benchmark --list
//   ntom_benchmark --workload=fig3_brite --seed=42 --seconds=20
//                  --trace=0 --tmp=DIR --out=results.json
//
// With --trace=1 the binary registers traced copies of the library's
// components, alternates untraced and traced operations on the same
// inputs, and writes the recorded spans to DIR/spans.jsonl.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "ntom/util/flags.hpp"
#include "ntom/util/json.hpp"
#include "ntom/util/simd/simd.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Peak resident set of this process image in kB (VmHWM). Unlike the
/// rusage maximum, it does not inherit the forking parent's peak.
long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

std::string samples(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ", ";
    out += number(xs[i]);
  }
  return out + "]";
}

void write_results(const std::string& path, const std::string& workload,
                   const bench::run_options& options, std::size_t cores,
                   const bench::results& r) {
  std::string out = "{\"workload\": " + ntom::json_quote(workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  out += ", \"threads\": " + std::to_string(options.threads);
  out += ", \"nproc\": " + std::to_string(cores);
  out += ", \"simd\": " +
         ntom::json_quote(ntom::simd::level_name(ntom::simd::active_level()));
  out += ",\n \"setup_s\": " + samples(r.setup_s);
  out += ",\n \"op_s\": " + samples(r.op_s);
  out += ",\n \"op_cpu_s\": " + samples(r.op_cpu_s);
  out += ",\n \"pairs\": [";
  for (std::size_t i = 0; i < r.pairs.size(); ++i) {
    if (i > 0) out += ", ";
    out += '[';
    out += number(r.pairs[i].first);
    out += ", ";
    out += number(r.pairs[i].second);
    out += ']';
  }
  out += "],\n \"peak_rss_kb\": " + std::to_string(peak_rss_kb());
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ",\n \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out += (i > 0 ? ", " : "") + ntom::json_quote(r.failures[i]);
  }
  out += "],\n \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : r.counters) {
    out += (first ? "" : ", ") + ntom::json_quote(name) + ": " + number(value);
    first = false;
  }
  out += "},\n \"cells\": [";
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const bench::accuracy_cell& c = r.cells[i];
    out += std::string(i > 0 ? ",\n  " : "\n  ") + "[" + ntom::json_quote(c.label) +
           ", " + ntom::json_quote(c.series) + ", " + ntom::json_quote(c.metric) +
           ", " + number(c.value) + "]";
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(out.c_str(), f) < 0 || std::fclose(f) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ntom::flags opts(argc, argv);
    if (opts.has("list")) {
      for (const bench::workload& w : bench::workloads()) {
        std::printf("%-16s %s\n", w.name, w.why);
      }
      return 0;
    }
    const std::string name = opts.get_string("workload", "");
    const auto it = std::find_if(
        bench::workloads().begin(), bench::workloads().end(),
        [&](const bench::workload& w) { return name == w.name; });
    if (it == bench::workloads().end()) {
      std::fprintf(stderr, "unknown workload '%s' (see --list)\n", name.c_str());
      return 2;
    }
    const std::string out = opts.get_string("out", "");
    const std::string tmp = opts.get_string("tmp", "");
    if (out.empty() || tmp.empty()) {
      std::fprintf(stderr, "--out and --tmp are required\n");
      return 2;
    }
    const std::size_t cores =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    bench::run_options options;
    options.seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
    options.seconds = opts.get_double("seconds", 10.0);
    options.trace = opts.get_int("trace", 0) != 0;
    options.threads = std::min<std::size_t>(4, cores);
    options.tmp_dir = tmp;
    if (options.trace) bench::register_traced_components();

    const bench::results r = it->run(options);
    if (options.trace) {
      bench::write_spans(tmp + "/spans.jsonl");
    }
    write_results(out, name, options, cores, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntom_benchmark: %s\n", e.what());
    return 1;
  }
}

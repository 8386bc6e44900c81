#include "ntom/trace/trace_scenario.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "ntom/trace/imperfection.hpp"
#include "ntom/trace/trace_reader.hpp"

namespace ntom {

namespace {

/// A measurement_source with an imperfection chain applied on every
/// pass. Decorator instances are rebuilt per pass, so repeated passes
/// (fit, then score) see the identical degraded stream.
class filtered_source final : public measurement_source {
 public:
  filtered_source(std::shared_ptr<const measurement_source> base,
                  imperfection_chain chain)
      : base_(std::move(base)), chain_(std::move(chain)) {}

  [[nodiscard]] std::shared_ptr<const topology> topology_ptr() const override {
    return base_->topology_ptr();
  }
  [[nodiscard]] std::size_t intervals() const override {
    return base_->intervals();
  }
  [[nodiscard]] bool has_truth() const override { return base_->has_truth(); }
  [[nodiscard]] bool has_mask() const override { return base_->has_mask(); }
  [[nodiscard]] std::string provenance() const override {
    return base_->provenance();
  }

  void stream(measurement_sink& sink,
              std::size_t chunk_intervals) const override {
    std::vector<std::unique_ptr<imperfection_sink>> stages;
    measurement_sink& head = chain_.build(sink, stages);
    base_->stream(head, chunk_intervals);
  }

 private:
  std::shared_ptr<const measurement_source> base_;
  imperfection_chain chain_;
};

/// An interval-range window over a trace file: stream() replays only
/// [first, first + count), re-based to 0 — the shard unit of a corpus
/// run. Seeks through the file's CIDX index, so a grid of shard arms
/// over one big file never re-reads the frames outside each window.
class range_source final : public measurement_source {
 public:
  range_source(std::shared_ptr<const trace_reader> base, std::uint64_t first,
               std::uint64_t count)
      : base_(std::move(base)), first_(first), count_(count) {}

  [[nodiscard]] std::shared_ptr<const topology> topology_ptr() const override {
    return base_->topology_ptr();
  }
  [[nodiscard]] std::size_t intervals() const override {
    return static_cast<std::size_t>(count_);
  }
  [[nodiscard]] bool has_truth() const override { return base_->has_truth(); }
  [[nodiscard]] bool has_mask() const override { return base_->has_mask(); }
  [[nodiscard]] std::string provenance() const override {
    return base_->provenance();
  }

  void stream(measurement_sink& sink,
              std::size_t chunk_intervals) const override {
    base_->stream_range(sink, chunk_intervals, first_, count_);
  }

 private:
  std::shared_ptr<const trace_reader> base_;
  std::uint64_t first_;
  std::uint64_t count_;
};

}  // namespace

std::shared_ptr<const measurement_source> open_trace_source(const spec& s) {
  const std::string file = s.get_string("file");
  if (file.empty()) {
    throw spec_error("scenario 'trace': the file=... option is required");
  }
  auto reader = std::make_shared<trace_reader>(file);
  std::shared_ptr<const measurement_source> source = reader;
  if (s.has("first") || s.has("count")) {
    const std::size_t first = s.get_size("first", 0);
    const std::size_t count =
        s.get_size("count", reader->intervals() > first
                                ? reader->intervals() - first
                                : 0);
    if (first > reader->intervals() ||
        count > reader->intervals() - first) {
      throw spec_error("scenario 'trace': first=" + std::to_string(first) +
                       ",count=" + std::to_string(count) +
                       " exceeds the dataset (" +
                       std::to_string(reader->intervals()) + " intervals)");
    }
    source = std::make_shared<range_source>(std::move(reader), first, count);
  }
  const std::string imperfect = s.get_string("imperfect");
  if (imperfect.empty()) return source;
  return std::make_shared<filtered_source>(std::move(source),
                                           imperfection_chain(imperfect));
}

void register_trace_scenario(registry<scenario_plugin>& reg) {
  reg.add({
      "trace",
      "Trace",
      "replays a captured .trc dataset (embedded topology; the run's "
      "topology spec and seeds are ignored)",
      {"replay"},
      {{"file", "path to the .trc file (single-quote paths with commas)"},
       {"first", "first interval of a replay window (default 0)"},
       {"count",
        "intervals in the replay window (default: through the end); "
        "first/count shard one file across grid arms via its index"},
       {"imperfect",
        "quoted ';'-separated imperfection specs applied on replay "
        "(drop | subsample | blackout)"}},
      {[](scenario_params p, const spec&) {
         p.nonstationary = false;  // replay has no phases to pre-draw.
         return p;
       },
       [](const topology&, const scenario_params&, const spec&) -> congestion_model {
         // An empty model would violate the "at least one phase"
         // invariant the simulator relies on; replay runs never build
         // one (prepare_topology takes the source branch), so any
         // direct make_scenario call is a usage error.
         throw spec_error(
             "scenario 'trace' replays a captured dataset; it cannot "
             "build a congestion model — run it through "
             "prepare_run/prepare_topology or the experiment facade");
       },
       [](const spec& s) { return open_trace_source(s); }},
  });
}

}  // namespace ntom

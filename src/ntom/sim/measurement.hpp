// The chunked streaming measurement contract between the simulator and
// every downstream consumer.
//
// run_experiment_streaming emits the T probing intervals as fixed-size
// interval chunks; consumers implement measurement_sink and accumulate
// whatever state they need (online counters, a columnar store, a
// per-interval scorer). The pipeline itself holds O(chunk) memory — a
// chunk is two small interval-major bit matrices — so T can grow to 10^6
// without the simulate->estimate path ever materializing three full
// experiment views.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ntom/graph/topology.hpp"
#include "ntom/util/bit_matrix.hpp"

namespace ntom {

/// Default chunk granularity (intervals per consume() call). Multiples
/// of 64 keep the columnar splice word-aligned; correctness does not
/// depend on it — any chunk size yields bit-identical results.
inline constexpr std::size_t default_chunk_intervals = 256;

/// One block of consecutive intervals, interval-major: row i of each
/// matrix is interval first_interval + i.
struct measurement_chunk {
  std::size_t first_interval = 0;
  std::size_t count = 0;           ///< rows used in the matrices.
  bit_matrix congested_paths;      ///< count x paths: observed congested.
  bit_matrix true_links;           ///< count x links: ground truth.

  /// Probe-budget mask (ntom/plan): the paths actually measured in this
  /// chunk's intervals. Empty means fully observed — the classic
  /// every-path-every-interval pipeline, and the only state the
  /// simulator and trace reader ever produce; probe_policy_sink is what
  /// sets a mask. When non-empty, congested_paths rows are zero outside
  /// the mask, so unobserved paths read as "good" in path_good_major()
  /// — consumers that count goodness must qualify with this mask
  /// (pathset_counter and the scorers do).
  bitvec observed_paths;

  [[nodiscard]] bool fully_observed() const noexcept {
    return observed_paths.empty();
  }

  [[nodiscard]] bitvec congested_paths_at(std::size_t i) const {
    return congested_paths.row_copy(i);
  }
  [[nodiscard]] bitvec true_links_at(std::size_t i) const {
    return true_links.row_copy(i);
  }

  /// Path-major good-interval view of this chunk (paths x count): the
  /// transposed complement of congested_paths. Accumulating consumers
  /// AND these rows into their counters / columnar store. Memoized, so
  /// a fanout of many consumers pays for one transpose per chunk; the
  /// producer must call invalidate_derived() after refilling the
  /// matrices.
  [[nodiscard]] const bit_matrix& path_good_major() const {
    if (!good_major_valid_) {
      good_major_ = congested_paths.transposed();
      good_major_.flip_all();
      good_major_valid_ = true;
    }
    return good_major_;
  }

  void invalidate_derived() noexcept { good_major_valid_ = false; }

 private:
  mutable bit_matrix good_major_;
  mutable bool good_major_valid_ = false;
};

/// Consumer side of the streaming contract. begin() is called once
/// before the first chunk with the experiment dimensions, consume() once
/// per chunk in interval order, end() once after the last chunk.
class measurement_sink {
 public:
  virtual ~measurement_sink() = default;

  virtual void begin(const topology& t, std::size_t intervals) {
    (void)t;
    (void)intervals;
  }
  virtual void consume(const measurement_chunk& chunk) = 0;
  virtual void end() {}
};

/// Producer side of the streaming contract for *replayed* measurements:
/// something that owns a topology and can emit its interval stream into
/// a sink any number of times, at any chunk granularity, bit-identically
/// (the trace reader in trace/, possibly wrapped by imperfection
/// decorators). The simulator itself stays a free function
/// (run_experiment_streaming) — a source is what a run uses *instead*
/// of simulating.
class measurement_source {
 public:
  virtual ~measurement_source() = default;

  /// The dataset's topology, shared read-only with every run that
  /// replays it.
  [[nodiscard]] virtual std::shared_ptr<const topology> topology_ptr()
      const = 0;

  /// Intervals of the underlying dataset (decorators that drop
  /// intervals report the undecorated count here; the effective T
  /// reaches consumers through sink.begin()).
  [[nodiscard]] virtual std::size_t intervals() const = 0;

  /// Whether chunks carry a real ground-truth plane. When false the
  /// true_links matrices are all-zero and evaluators must score
  /// observation-only.
  [[nodiscard]] virtual bool has_truth() const = 0;

  /// Human-readable origin of the dataset (capture config, import
  /// source); empty when unknown.
  [[nodiscard]] virtual std::string provenance() const { return ""; }

  /// Whether chunks may carry an observed-path mask (a probe-budget
  /// capture replayed from a masked .trc file). Masked streams cannot
  /// be materialized — the columnar store has no mask plane — so
  /// prepare_run consults this and leaves such runs unmaterialized.
  [[nodiscard]] virtual bool has_mask() const { return false; }

  /// Replays the stream into `sink`. Callable repeatedly; every pass
  /// yields the identical chunk sequence for a given granularity, and
  /// any granularity yields bit-identical downstream results.
  virtual void stream(measurement_sink& sink,
                      std::size_t chunk_intervals) const = 0;
};

/// Forwards one simulation pass to several consumers — the way to fit
/// many streaming estimators (plus trackers) in a single pass.
class fanout_sink final : public measurement_sink {
 public:
  fanout_sink() = default;
  explicit fanout_sink(std::vector<measurement_sink*> sinks)
      : sinks_(std::move(sinks)) {}

  void add(measurement_sink* sink) { sinks_.push_back(sink); }

  void begin(const topology& t, std::size_t intervals) override {
    for (measurement_sink* s : sinks_) s->begin(t, intervals);
  }
  void consume(const measurement_chunk& chunk) override {
    for (measurement_sink* s : sinks_) s->consume(chunk);
  }
  void end() override {
    for (measurement_sink* s : sinks_) s->end();
  }

 private:
  std::vector<measurement_sink*> sinks_;
};

}  // namespace ntom

// The measurement experiment: T intervals of per-path probing (§2, §3.2).
//
// Each interval: draw link states from the congestion model, assign each
// link a loss rate from the loss model, push `packets_per_path` probes
// down every path with independent per-link drops, and classify each
// path good/congested against the 1-(1-f)^d threshold. The E2E
// Monitoring assumption can be made exact with `oracle_monitor`, which
// classifies a path congested iff one of its links is (useful to
// separate algorithmic error from probing noise).
//
// The simulator is a chunked stream: run_experiment_streaming emits
// fixed-size interval chunks through a measurement_sink, and
// run_experiment is merely the materializing consumer (materialize_sink)
// of that stream. Both paths are bit-identical for the same seed at any
// chunk size — the RNG stream advances per interval, never per chunk.
// replay_experiment runs the other way: a finished store back into
// chunks, so a materialized run feeds the same consumers.
//
// Probes are drawn per interval for all paths at once through
// binomial_batch (util/rng.hpp), sized by the path count: each of the
// dispatched xoshiro kernel's sixteen lanes draws one segment of
// consecutive paths, with exactly the counts and generator state of a
// per-path rng::binomial loop, so the stream is the same at every SIMD
// level. Per stream, the simulator builds a flat path -> link hop table,
// the covered-link list and, per path, the delivered-probe cutoff below
// which observed loss exceeds margin * (1-(1-f)^d) (the exact floating
// comparison, evaluated at every count); per interval, each covered
// link's survival 1 - loss is stored once, not once per hop.
#pragma once

#include <cstdint>
#include <vector>

#include "ntom/sim/congestion.hpp"
#include "ntom/sim/loss_model.hpp"
#include "ntom/sim/measurement.hpp"
#include "ntom/util/bit_matrix.hpp"

namespace ntom {

struct sim_params {
  std::size_t intervals = 1000;        ///< T; the paper averages over 1000.
  std::size_t packets_per_path = 200;  ///< probes per path per interval.
  double loss_threshold = default_loss_threshold;  ///< f.

  /// Operational margin on the path threshold: a path is declared
  /// congested when observed loss exceeds margin * (1-(1-f)^d). Good
  /// links draw loss up to f, so with finite probes a margin of 1 would
  /// misclassify short all-good paths regularly; congested links draw
  /// loss in (f, 1], so a modest margin costs almost no detection.
  double threshold_margin = 1.3;

  bool oracle_monitor = false;  ///< skip probing; use true path status.
  std::uint64_t seed = 7;
};

/// Everything an estimator or a scorer may need from one experiment,
/// in the columnar store: one packed path-major observation matrix (the
/// single source of truth — the interval-major congested-path view is
/// its complement transpose, derived on demand) plus the ground-truth
/// link matrix for scoring.
struct experiment_data {
  std::size_t intervals = 0;

  /// paths x intervals: bit t of row p set iff path p was observed GOOD
  /// in interval t.
  bit_matrix path_good;

  /// intervals x links: row t = truly congested links (scoring only).
  bit_matrix true_links;

  /// Paths observed good in every interval.
  bitvec always_good_paths;

  [[nodiscard]] std::size_t num_paths() const noexcept {
    return path_good.rows();
  }

  /// Interval t's observed congested paths (complement of column t of
  /// path_good — every monitored path is good or congested, never both).
  [[nodiscard]] bitvec congested_paths_at(std::size_t t) const {
    bitvec congested = path_good.column_copy(t);
    congested.flip();
    return congested;
  }

  /// Interval t's truly congested links.
  [[nodiscard]] bitvec true_links_at(std::size_t t) const {
    return true_links.row_copy(t);
  }
};

/// The materializing consumer: builds experiment_data from the stream
/// (chunk transpose + word-aligned column splice into the columnar
/// store). run_experiment uses it; so does the estimator base class for
/// fits that need the whole store (estimator::begin_fit).
class materialize_sink final : public measurement_sink {
 public:
  explicit materialize_sink(experiment_data& out) : out_(&out) {}

  void begin(const topology& t, std::size_t intervals) override;
  void consume(const measurement_chunk& chunk) override;
  void end() override;

 private:
  experiment_data* out_;
};

/// Runs the full experiment, streaming interval chunks into `sink`.
/// Deterministic in params.seed; the chunk size never changes results.
void run_experiment_streaming(
    const topology& t, const congestion_model& model, const sim_params& params,
    measurement_sink& sink,
    std::size_t chunk_intervals = default_chunk_intervals);

/// The inverse of materialize_sink: streams a materialized experiment
/// back into `sink` as interval chunks (column slice + transpose per
/// chunk). The chunks equal the ones the simulator emitted for the same
/// chunk size, so a store is one more stream source — any chunk size
/// yields bit-identical downstream results.
void replay_experiment(const topology& t, const experiment_data& data,
                       measurement_sink& sink,
                       std::size_t chunk_intervals = default_chunk_intervals);

/// Runs the full experiment materialized. Deterministic in params.seed.
[[nodiscard]] experiment_data run_experiment(const topology& t,
                                             const congestion_model& model,
                                             const sim_params& params);

}  // namespace ntom

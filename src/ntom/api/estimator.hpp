// The estimator abstraction: every inference / probability-computation
// algorithm behind one interface, registered by name.
//
// An estimator is fitted once per experiment (the Bayesian algorithms'
// "Step 1" / Probability Computation) and then queried through its
// capabilities:
//
//   boolean_inference — per-interval congested-link sets (Fig. 3).
//   link_estimation   — per-link congestion probabilities (Fig. 4).
//   windowed          — the chunk protocol plus retire/refit (service).
//
// Every estimator accepts both fit protocols, and implements exactly
// one of them; the base class derives the other:
//
//   chunk    begin_fit/consume/end_fit over the interval stream, with
//            O(counters) state; fit(t, data) replays the store into it.
//   store    fit(t, data) over the materialized experiment, for fits
//            that need every interval at once (Algorithm 1's adaptive
//            selection); the chunk protocol materializes privately
//            through materialize_sink and then calls fit.
//
// The sliding window is not a third protocol: it is the chunk protocol
// with retire(), which subtracts a chunk's exact integer contribution,
// and refit(), which solves from the current counters without ending
// the stream. Only chunk-protocol estimators whose counters subtract
// (caps().windowed) provide the two.
//
// Built-ins (canonical name / series label / capabilities / protocol /
// source):
//
//   sparsity        Sparsity        boolean, windowed       chunk  Tomo/SCFS
//   bayes-indep     Bayes-Indep     boolean+link, windowed  chunk  CLINK
//   bayes-corr      Bayes-Corr      boolean+link            store  [10]
//   independence    Independence    link, windowed          chunk  CLINK step 1
//   corr-heuristic  Corr-heuristic  link, windowed          chunk  IMC'10 [9]
//   corr-complete   Corr-complete   link                    store  this paper
//
// The algorithm call behind each adapter; the adapters are the one way
// the library fits these algorithms:
//
//   sparsity        infer_sparsity per interval (no fit)
//   bayes-indep     solve_independence on pathset_counter counts, then
//                   map_independent per interval
//   bayes-corr      compute_correlation_complete, then map_correlated
//                   per interval
//   independence    solve_independence on pathset_counter counts
//   corr-heuristic  solve_correlation_heuristic on pathset_counter counts
//   corr-complete   compute_correlation_complete
//
// Shared fits: bayes-indep's fit IS independence's, and bayes-corr's IS
// corr-complete's — the Bayesian estimator adds only the per-interval
// MAP step, and its links() returns the same bits as its partner's.
// fit_key() names that relation, so an evaluation that lists both
// members of a pair (with equal options) fits the model once.
//
// evals.cpp drives any estimator list through the chunk protocol, so a
// new algorithm becomes a registration, not a rewiring of the benches.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ntom/sim/packet_sim.hpp"
#include "ntom/tomo/estimates.hpp"
#include "ntom/util/registry.hpp"
#include "ntom/util/spec.hpp"

namespace ntom {

/// What a fitted estimator can be asked for.
struct estimator_caps {
  bool boolean_inference = false;  ///< infer() per interval.
  bool link_estimation = false;    ///< links() after fit().

  /// The chunk-protocol fit also takes retire() and refit(): evidence
  /// can be retired as well as added, and refit() re-solves from the
  /// chunks consumed and not yet retired without ending the stream —
  /// the contract tomography_service requires of its estimators.
  bool windowed = false;
};

class estimator {
 public:
  virtual ~estimator() = default;

  [[nodiscard]] virtual estimator_caps caps() const noexcept = 0;

  /// Store protocol: one-time model fitting over a finished experiment;
  /// must be called (or the chunk protocol run) before infer() /
  /// links(). The topology must outlive the estimator. The default
  /// replays `data` into begin_fit/consume/end_fit.
  virtual void fit(const topology& t, const experiment_data& data);

  /// Chunk protocol: drivers call begin_fit once, consume per interval
  /// chunk in order, end_fit once; afterwards the estimator is fitted
  /// exactly as if fit() had seen the materialized experiment
  /// (bit-identical outputs for the same seed, at any chunk size). The
  /// defaults collect the chunks into a private store and end_fit
  /// calls fit() on it; a masked (probe-budget) chunk throws spec_error
  /// there, as the store has no observed-path plane. An estimator that
  /// overrides neither protocol throws std::logic_error from begin_fit.
  virtual void begin_fit(const topology& t, std::size_t intervals);
  virtual void consume(const measurement_chunk& chunk);
  virtual void end_fit();

  /// Sliding window: the chunk protocol plus retire/refit; requires
  /// caps().windowed. begin_window(t) checks the capability (throwing
  /// std::logic_error without it) and then calls begin_fit(t, 0): an
  /// unbounded stream. consume extends the window, retire shrinks it
  /// from the front (chunks retire in consumption order), and refit()
  /// solves from the current counters WITHOUT ending the stream — after
  /// refit the estimator answers infer() / links() exactly as if
  /// begin_fit/consume/end_fit had run over the window's chunks alone
  /// (bit-identical; the counters subtract retired evidence exactly).
  /// refit may be called any number of times as the window slides. The
  /// retire/refit defaults throw std::logic_error.
  virtual void begin_window(const topology& t);
  virtual void retire(const measurement_chunk& chunk);
  virtual void refit();

  /// Boolean inference for one interval's observed congested paths.
  /// Default throws std::logic_error; requires caps().boolean_inference.
  [[nodiscard]] virtual bitvec infer(const bitvec& congested_paths) const;

  /// Probe-budget Boolean inference: `observed_paths` is the interval's
  /// observed-path mask (empty = fully observed — the default forwards
  /// that case to the overload above). Estimators that understand
  /// partial observation override this; the default throws
  /// std::logic_error for a non-empty mask.
  [[nodiscard]] virtual bitvec infer(const bitvec& congested_paths,
                                     const bitvec& observed_paths) const;

  /// Per-link congestion-probability estimates.
  /// Default throws std::logic_error; requires caps().link_estimation.
  [[nodiscard]] virtual link_estimates links() const;

 private:
  // State of the derived protocol side: the private store the default
  // chunk protocol fills, and the guard that stops the two defaults
  // from calling each other forever.
  const topology* store_topo_ = nullptr;
  std::optional<experiment_data> store_;
  bool replaying_store_ = false;
};

/// measurement_sink adapter driving an estimator's chunk-protocol fit
/// from a stream pass (usable inside a fanout_sink to fit many
/// estimators in one pass).
class estimator_fit_sink final : public measurement_sink {
 public:
  explicit estimator_fit_sink(estimator& est) : est_(&est) {}

  void begin(const topology& t, std::size_t intervals) override {
    est_->begin_fit(t, intervals);
  }
  void consume(const measurement_chunk& chunk) override {
    est_->consume(chunk);
  }
  void end() override { est_->end_fit(); }

 private:
  estimator* est_;
};

/// An estimator reference: registered name + options.
using estimator_spec = spec;

using estimator_factory =
    std::function<std::unique_ptr<estimator>(const spec& s)>;

/// Global registry with the six built-ins pre-registered. Register
/// custom estimators before launching batches; lookups are lock-free.
[[nodiscard]] registry<estimator_factory>& estimator_registry();

/// Resolves the spec through the registry and constructs an unfitted
/// estimator. Throws spec_error on unknown names / undocumented options.
[[nodiscard]] std::unique_ptr<estimator> make_estimator(
    const estimator_spec& s);

/// Series label: the spec's `label` option if present, else the
/// registered display name ("Sparsity", "Bayes-Corr", ...).
[[nodiscard]] std::string estimator_label(const estimator_spec& s);

/// The model an estimator fits: the canonical name of the fit followed
/// by the spec's options, `label` left out ("independence,pairs=100").
/// bayes-indep maps to independence and bayes-corr to corr-complete;
/// every other estimator (custom registrations included) maps to its
/// own canonical name. Options are compared as written, so an explicit
/// default (`pairs=6000`) keeps its own key.
///
/// Contract: two specs share a key only when fitting either one on the
/// same stream gives the more capable estimator a links() bit-identical
/// to the other's — so one fitted object can answer for both (its
/// infer() serves the Boolean member). Throws spec_error like
/// make_estimator on unknown names or options.
[[nodiscard]] std::string fit_key(const estimator_spec& s);

}  // namespace ntom

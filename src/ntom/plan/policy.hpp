// Probe-budget measurement planning (ROADMAP item 4): which paths get
// probed each chunk when the deployment cannot afford to measure every
// path every interval.
//
// A probe_policy picks an observed-path set per chunk; probe_policy_sink
// applies the pick as a mask on the measurement stream (the chunk's
// congested rows are ANDed with the selection and observed_paths records
// it). Everything downstream that counts goodness — pathset_counter,
// the observation scorer, the solvers' per-equation denominators —
// qualifies with the mask, so a masked run estimates from exactly the
// evidence the budget paid for.
//
// Policies resolve through a string-spec registry like scenarios and
// trace imperfections: "uniform,frac=0.25,seed=7". All built-ins share
// `frac`, the per-chunk probe budget as a fraction of paths (in (0, 1];
// the path count k = max(1, round(frac * paths))).
//
// Determinism contract: a policy's selections depend only on its spec
// and the chunk sequence, never on wall clock or global state — the fit
// pass and every scoring replay rebuild the policy fresh and see
// identical masks. At frac=1.0 the sink forwards chunks untouched
// (mask stays empty), so a full budget is bit-identical to the unmasked
// pipeline at ANY chunk size. Under a partial budget the masks are a
// function of chunk boundaries, so results are bit-identical across
// threads and passes at a FIXED chunk size (the streamed mode's
// chunk_intervals), not across chunk sizes.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "ntom/graph/topology.hpp"
#include "ntom/sim/measurement.hpp"
#include "ntom/util/registry.hpp"
#include "ntom/util/spec.hpp"

namespace ntom {

/// Chooses the observed-path set of each measurement chunk.
class probe_policy {
 public:
  virtual ~probe_policy() = default;

  /// Called once per pass before the first select(); `intervals` is the
  /// stream length reported to sinks (0 for unbounded service streams).
  virtual void begin(const topology& t, std::size_t intervals) = 0;

  /// The paths to observe for the chunk covering
  /// [first_interval, first_interval + count). Must return a bitvec
  /// sized to the topology's path count with at least one bit set.
  [[nodiscard]] virtual bitvec select(std::size_t first_interval,
                                      std::size_t count) = 0;

  /// Feedback after the (masked) chunk was measured — adaptive policies
  /// update their beliefs here. `chunk.observed_paths` is empty when the
  /// selection covered every path.
  virtual void observe(const measurement_chunk& chunk) { (void)chunk; }
};

/// A policy reference: registered name + options.
using probe_policy_spec = spec;

struct probe_policy_plugin {
  std::function<std::unique_ptr<probe_policy>(const spec& s)> make;
};

/// Global registry with the built-ins (uniform, round_robin, info_gain)
/// pre-registered. Register extensions before launching batches;
/// lookups are lock-free.
[[nodiscard]] registry<probe_policy_plugin>& probe_policy_registry();

/// Resolves the spec and constructs the policy. Throws spec_error on
/// unknown names / undocumented options / invalid option values.
[[nodiscard]] std::unique_ptr<probe_policy> make_probe_policy(
    const probe_policy_spec& s);

/// The shared `frac` option: probe budget as a fraction of paths.
/// Throws spec_error unless in (0, 1].
[[nodiscard]] double probe_policy_frac(const spec& s, double fallback);

/// Budget in paths: max(1, round(frac * num_paths)), capped at
/// num_paths.
[[nodiscard]] std::size_t probe_budget_paths(double frac,
                                             std::size_t num_paths);

/// Applies a policy to a measurement stream: selects per chunk, masks
/// the congested rows outside the selection, stamps observed_paths, and
/// feeds the (masked) chunk to both the downstream sink and the
/// policy's observe(). A selection covering every path forwards the
/// chunk untouched — zero copies, and bit-identical to no sink at all.
/// The truth plane is never masked: detection is scored against the
/// full truth, so budget curves measure what the budget really buys.
class probe_policy_sink final : public measurement_sink {
 public:
  /// Borrows both; they must outlive the pass.
  probe_policy_sink(probe_policy& policy, measurement_sink& downstream)
      : policy_(&policy), downstream_(&downstream) {}

  void begin(const topology& t, std::size_t intervals) override;
  void consume(const measurement_chunk& chunk) override;
  void end() override { downstream_->end(); }

 private:
  probe_policy* policy_;
  measurement_sink* downstream_;
  std::size_t num_paths_ = 0;
  measurement_chunk masked_;
};

}  // namespace ntom

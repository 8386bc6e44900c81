// The paper's congestion scenarios (§3.2, §5.4) as registered
// congestion-model builders.
//
//   random_congestion      — 10% of covered links congestable, chosen at
//                            random, probabilities U(0,1).
//   concentrated_congestion— the congestable links sit at the network
//                            edge (links adjacent to end-hosts).
//   no_independence        — every congestable link is correlated with
//                            at least one other (they share driver
//                            router-level links).
//   no_stationarity        — probabilities are redrawn every few
//                            intervals, layered on a base scenario
//                            (option `base`, default no_independence as
//                            in Fig. 3).
//
// Correlated-failure scenarios (adversarial stress beyond §5.4):
//
//   srlg          — shared-risk link groups derived from the topology's
//                   AS clustering: each selected AS becomes one group
//                   whose underlying router links fire together, so
//                   whole neighbourhoods co-congest in one interval.
//   gilbert       — per-link two-state Gilbert–Elliott congestion:
//                   bursty, time-correlated link states with mean burst
//                   and gap sojourns instead of i.i.d. interval draws.
//   hotspot_drift — a congestion hot-spot (an AS neighbourhood) that
//                   random-walks across the AS adjacency graph every
//                   phase_length intervals.
//
// The "Sparse Topology" scenario of Fig. 3 is random_congestion applied
// to a Sparse topology — a topology choice, not a model choice.
//
// Scenarios are resolved by spec string ("no_independence,nonstationary"
// or "no_stationarity,base=random_congestion,phase_length=25") through
// the scenario registry; new scenarios plug in by registering a plugin,
// without touching exp/, the benches, or the CLIs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ntom/sim/congestion.hpp"
#include "ntom/sim/measurement.hpp"
#include "ntom/util/registry.hpp"
#include "ntom/util/spec.hpp"

namespace ntom {

/// A scenario reference: registered name + options.
using scenario_spec = spec;

struct scenario_params {
  double congestable_fraction = 0.10;  ///< the paper's 10%.
  bool nonstationary = false;          ///< redraw probabilities per phase.
  std::size_t phase_length = 50;       ///< intervals per phase ("every few
                                       ///  time intervals").
  /// Phases to pre-draw when nonstationary (cover T/phase_length); 0
  /// means unset, which run_config::reconcile fills.
  std::size_t num_phases = 0;
  std::uint64_t seed = 11;
};

/// A registered scenario: `configure` overlays the spec's options onto
/// base params (must be idempotent — it may run more than once);
/// `build` realizes the congestion model from the configured params.
///
/// A SOURCE scenario additionally sets `make_source`: instead of
/// simulating a congestion model, the run replays a captured
/// measurement dataset (the `trace` scenario). For source scenarios the
/// run's topology comes from the source, `build` returns an empty
/// model, and the simulation seeds are ignored.
struct scenario_plugin {
  std::function<scenario_params(scenario_params, const spec&)> configure;
  std::function<congestion_model(const topology&, const scenario_params&,
                                 const spec&)>
      build;
  std::function<std::shared_ptr<const measurement_source>(const spec&)>
      make_source;
};

/// Global registry with the four built-ins pre-registered. Register
/// custom scenarios before launching batches; lookups are lock-free.
[[nodiscard]] registry<scenario_plugin>& scenario_registry();

/// Overlays the spec's scenario options (fraction, nonstationary,
/// phase_length, ...) onto `params`. Idempotent; run_config::reconcile
/// uses it so phase pre-drawing sees the spec's knobs.
[[nodiscard]] scenario_params apply_scenario_spec(const scenario_spec& s,
                                                  scenario_params params);

/// Builds a congestion model for the scenario on the given topology.
/// Deterministic in params.seed. Throws spec_error on unknown names or
/// undocumented options.
[[nodiscard]] congestion_model make_scenario(const topology& t,
                                             const scenario_spec& s,
                                             const scenario_params& params = {});

/// Display label: the spec's `label` option if present, else the
/// registered display name ("Random Congestion", ...).
[[nodiscard]] std::string scenario_label(const scenario_spec& s);

/// True when the spec names a source scenario (a registered plugin with
/// make_source — replayed measurements instead of a simulated model).
/// Returns false for unknown names instead of throwing, so schedulers
/// can probe before the run's own resolution reports the real error.
[[nodiscard]] bool scenario_is_source(const scenario_spec& s) noexcept;

}  // namespace ntom

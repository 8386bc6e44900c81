// Probes around the library's public layer boundaries, built entirely
// from its extension points so the library itself stays untouched:
//
//   * register_traced_components() adds a `traced-<name>` copy of every
//     estimator, topology and scenario registry entry. A copy keeps the
//     display name and option whitelist, so labels and outputs do not
//     change; only its factory is wrapped. Estimators come back inside a
//     decorator that times every virtual call, topology generation and
//     scenario builds become spans, and a source scenario's open (the
//     trace reader) becomes a span.
//   * traced_cells decorates the cell evaluator handed to run_grid: every
//     cell becomes a span, and the simulation that run preparation does
//     between the scenario build and make_run_state becomes one too.
#pragma once

#include <string>

#include "ntom/exp/grid.hpp"

namespace bench {

/// Registers the traced-<name> copies (once; later calls do nothing).
void register_traced_components();

/// `spec_text` with "traced-" prefixed to its component name when
/// `traced`, unchanged otherwise.
[[nodiscard]] std::string traced_name(const std::string& spec_text,
                                      bool traced);

/// cell_evaluator decorator: forwards to `inner` and records spans.
class traced_cells final : public ntom::cell_evaluator {
 public:
  explicit traced_cells(const ntom::cell_evaluator& inner) : inner_(&inner) {}

  [[nodiscard]] std::size_t shards(
      const ntom::run_config& config) const override;
  [[nodiscard]] std::shared_ptr<void> make_run_state(
      const ntom::run_config& config,
      const ntom::run_artifacts& run) const override;
  [[nodiscard]] std::vector<ntom::measurement> eval_cell(
      const ntom::run_config& config, const ntom::run_artifacts& run,
      void* run_state, std::size_t shard) const override;

 private:
  const ntom::cell_evaluator* inner_;
};

}  // namespace bench

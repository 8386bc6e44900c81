// Worker-count resolution shared by the grid scheduler (exp/grid) and
// the drivers that report the thread count they ran with. run_grid
// starts and joins its own work-stealing workers; determinism is the
// caller's job there too, as every run's RNG seed derives from the base
// seed and the run index.
#pragma once

#include <cstddef>

namespace ntom {

/// Resolves a thread-count request: 0 -> hardware_concurrency, >= 1.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

}  // namespace ntom

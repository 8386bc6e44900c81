#include "ntom/exp/grid.hpp"

#include <chrono>
#include <deque>
#include <exception>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "ntom/util/thread_pool.hpp"

namespace ntom {

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point start) {
  return std::chrono::duration<double>(clock::now() - start).count();
}

/// Mutable state of one run while its cells execute; cells of distinct
/// shards write disjoint row slots, so only `remaining` needs atomics.
struct run_slot {
  std::size_t index = 0;
  std::string label;
  run_config config;  ///< seeds derived; reconciliation stays internal
                      ///  to prepare_* (the pre-grid eval contract).
  std::size_t shards = 1;  ///< the evaluator's shard count, one cell each.
  std::once_flag prepared;
  run_artifacts artifacts;
  std::shared_ptr<void> state;
  std::atomic<bool> failed{false};
  std::vector<std::vector<measurement>> rows;
  std::vector<double> shard_seconds;
  double prepare_seconds = 0.0;
  std::atomic<std::size_t> remaining{1};
};

}  // namespace

std::shared_ptr<const topology> topology_cache::get(const topology_spec& s,
                                                    std::uint64_t seed) {
  const std::string key = s.to_string() + '\n' + std::to_string(seed);
  slot* sl = nullptr;
  bool created = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      it = slots_.emplace(key, std::make_unique<slot>()).first;
      created = true;
    }
    sl = it->second.get();
  }
  if (created) {
    misses_.fetch_add(1);
  } else {
    hits_.fetch_add(1);
  }
  std::call_once(sl->once, [&] {
    sl->topo = std::make_shared<const topology>(make_topology(s, seed));
  });
  return sl->topo;
}

batch_report run_grid(const std::vector<run_spec>& specs,
                      const cell_evaluator& eval, const batch_params& params,
                      grid_stats* stats) {
  const clock::time_point start = clock::now();
  batch_report report;
  topology_cache cache;

  // Seeds and shard counts are fixed up front, before any scheduling —
  // nothing downstream may depend on execution order.
  std::vector<std::unique_ptr<run_slot>> slots;
  slots.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto slot = std::make_unique<run_slot>();
    const std::size_t topo_group =
        specs[i].seed_group == run_spec::npos ? i : specs[i].seed_group;
    slot->index = i;
    slot->label = specs[i].label;
    slot->config = params.derive_seeds
                       ? derive_run_seeds(specs[i].config, params.base_seed, i,
                                          topo_group)
                       : specs[i].config;
    // Reconcile before inspecting stream.enabled below: a scenario
    // `policy='...'` option forces streamed execution at reconcile
    // time, and the mode decision must see that.
    slot->config.reconcile();
    slot->shards = std::max<std::size_t>(eval.shards(slot->config), 1);
    slot->rows.resize(slot->shards);
    slot->shard_seconds.assign(slot->shards, 0.0);
    slot->remaining.store(slot->shards);
    slots.push_back(std::move(slot));
  }
  // One capture file per run: a shared path would let one run's capture
  // overwrite the other's, and a streamed run scores from its own file.
  std::unordered_map<std::string, std::size_t> capture_owner;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::string& path = slots[i]->config.capture.path;
    if (path.empty()) continue;
    const auto [owner, fresh] = capture_owner.emplace(
        std::filesystem::path(path).lexically_normal().string(), i);
    if (!fresh) {
      const run_slot& first = *slots[owner->second];
      throw spec_error("run_grid: runs " + std::to_string(first.index) +
                       " ('" + first.label + "') and " + std::to_string(i) +
                       " ('" + slots[i]->label +
                       "') both capture to '" + path + "'");
    }
  }

  struct cell {
    std::size_t run;
    std::size_t shard;
  };
  std::vector<cell> cells;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t s = 0; s < slots[i]->shards; ++s) {
      cells.push_back({i, s});
    }
  }

  std::mutex sink_mutex;  // guards report + first_error.
  std::exception_ptr first_error;

  const auto execute_cell = [&](const cell& c) {
    run_slot& slot = *slots[c.run];
    try {
      if (!slot.failed.load()) {
        std::call_once(slot.prepared, [&] {
          const clock::time_point t0 = clock::now();
          // Streamed runs never materialize here: the evaluator replays
          // the deterministic interval stream itself, O(chunk) memory.
          // Source scenarios (trace replay) bring their own topology,
          // so generating one for the cache would be pure waste.
          std::shared_ptr<const topology> topo;
          if (params.cache_topologies &&
              !scenario_is_source(slot.config.scenario)) {
            topo = cache.get(slot.config.topo, slot.config.topo_seed);
          }
          slot.artifacts = slot.config.stream.enabled
                               ? prepare_topology(slot.config, std::move(topo))
                               : prepare_run(slot.config, std::move(topo));
          slot.state = eval.make_run_state(slot.config, slot.artifacts);
          slot.prepare_seconds = seconds_since(t0);
        });
      }
      if (slot.failed.load()) return;
      const clock::time_point t0 = clock::now();
      slot.rows[c.shard] = eval.eval_cell(slot.config, slot.artifacts,
                                          slot.state.get(), c.shard);
      slot.shard_seconds[c.shard] = seconds_since(t0);
      if (slot.remaining.fetch_sub(1) == 1) {
        run_result result;
        result.index = slot.index;
        result.label = slot.label;
        result.seconds = slot.prepare_seconds;
        for (const double s : slot.shard_seconds) result.seconds += s;
        for (std::vector<measurement>& rows : slot.rows) {
          result.measurements.insert(result.measurements.end(),
                                     std::make_move_iterator(rows.begin()),
                                     std::make_move_iterator(rows.end()));
        }
        std::lock_guard<std::mutex> lock(sink_mutex);
        report.add(std::move(result));
      }
    } catch (...) {
      slot.failed.store(true);
      std::lock_guard<std::mutex> lock(sink_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  const std::size_t threads = resolve_threads(params.threads);
  std::size_t steals = 0;
  if (threads <= 1 || cells.size() <= 1) {
    // Serial fast path: cells in deterministic order, no pool.
    for (const cell& c : cells) execute_cell(c);
  } else {
    // Work-stealing: per-worker deques seeded by run (sibling cells
    // start on one worker — the run they share is prepared exactly
    // once either way); an idle worker steals the oldest cell of a
    // loaded neighbour. Cells are never re-queued, so empty deques
    // everywhere means every cell is claimed and workers may exit.
    struct worker_deque {
      std::mutex mutex;
      std::deque<std::size_t> jobs;  // indices into cells.
    };
    const std::size_t workers = std::min(threads, cells.size());
    std::vector<worker_deque> deques(workers);
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      deques[cells[ci].run % workers].jobs.push_back(ci);
    }

    std::atomic<std::size_t> stolen{0};
    const auto worker_loop = [&](std::size_t w) {
      for (;;) {
        std::optional<std::size_t> job;
        {
          std::lock_guard<std::mutex> lock(deques[w].mutex);
          if (!deques[w].jobs.empty()) {
            job = deques[w].jobs.front();  // own queue: oldest first —
            deques[w].jobs.pop_front();    // runs complete in order.
          }
        }
        if (!job) {
          for (std::size_t offset = 1; offset < workers && !job; ++offset) {
            worker_deque& victim = deques[(w + offset) % workers];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.jobs.empty()) {
              job = victim.jobs.back();  // steal the newest: the victim
              victim.jobs.pop_back();    // keeps its in-flight run.
              stolen.fetch_add(1);
            }
          }
        }
        if (!job) return;
        execute_cell(cells[*job]);
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back(worker_loop, w);
    }
    worker_loop(0);
    for (std::thread& t : pool) t.join();
    steals = stolen.load();
  }

  if (first_error) std::rethrow_exception(first_error);
  report.total_seconds = seconds_since(start);
  if (stats != nullptr) {
    stats->runs = slots.size();
    stats->cells = cells.size();
    stats->steals = steals;
    stats->topo_cache_hits = cache.hits();
    stats->topo_cache_misses = cache.misses();
  }
  return report;
}

}  // namespace ntom

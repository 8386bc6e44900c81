#include "ntom/exp/runner.hpp"

#include <algorithm>

#include "ntom/plan/policy.hpp"
#include "ntom/trace/trace_writer.hpp"
#include "ntom/util/flags.hpp"

namespace ntom {

void run_config::reconcile() {
  scenario_opts = apply_scenario_spec(scenario, scenario_opts);
  if (scenario_opts.nonstationary && scenario_opts.phase_length > 0) {
    const std::size_t needed =
        (sim.intervals + scenario_opts.phase_length - 1) /
        scenario_opts.phase_length;
    scenario_opts.num_phases = std::max<std::size_t>(needed, 1);
  }
  // 0 means unset; a stationary run draws one phase.
  scenario_opts.num_phases = std::max<std::size_t>(scenario_opts.num_phases, 1);
  // Probe-budget policy: a scenario-spec `policy='...'` option (the
  // registry's universal key) overrides the config field, so grid arms
  // can carry their policy inside one spec string.
  if (scenario.has("policy")) {
    plan.policy = scenario.get_string("policy");
  }
  if (!plan.policy.empty()) {
    // Eager validation: a bad policy spec fails at config time, not
    // mid-pass. (make_probe_policy throws spec_error.) Capture composes
    // with a policy — the writer stores the per-chunk observed-path
    // mask plane (format v2) — but the materialized store has no mask
    // plane, so policies imply streamed execution.
    (void)make_probe_policy(probe_policy_spec(plan.policy));
    stream.enabled = true;
  }
  if (part.mode != partition_mode::none && part.max_cell_links == 0) {
    throw spec_error("run_config: part.max_cell_links must be positive");
  }
}

run_config run_config_from_flags(const flags& opts, run_config c) {
  if (opts.has("scenario")) c.scenario = opts.get_string("scenario", "");
  c.sim.intervals = opts.get_size("intervals", c.sim.intervals);
  c.sim.packets_per_path = opts.get_size("packets", c.sim.packets_per_path);
  c.sim.oracle_monitor = opts.get_bool("oracle", c.sim.oracle_monitor);
  scenario_params& sp = c.scenario_opts;
  sp.nonstationary = opts.get_bool("nonstationary", sp.nonstationary);
  sp.phase_length = opts.get_size("phase-length", sp.phase_length);
  sp.congestable_fraction =
      opts.get_double("fraction", sp.congestable_fraction);
  c.stream.enabled = opts.get_bool("streamed", c.stream.enabled);
  c.stream.chunk_intervals = opts.get_size("chunk", c.stream.chunk_intervals);
  c.plan.policy = opts.get_string("policy", c.plan.policy);
  if (opts.has("partition")) {
    c.part.mode = partition_mode_from_string(opts.get_string("partition", ""));
  }
  c.part.max_cell_links =
      opts.get_size("partition-max-links", c.part.max_cell_links);
  c.reconcile();
  return c;
}

bool paper_scale_from_flags(const flags& opts) {
  const std::string scale = opts.get_string("scale", "small");
  if (scale != "small" && scale != "paper") {
    throw flag_error("--scale=" + scale + ": expected small or paper");
  }
  return scale == "paper";
}

run_artifacts prepare_topology(run_config config,
                               std::shared_ptr<const topology> topo) {
  config.reconcile();
  run_artifacts run;
  const auto& entry = scenario_registry().resolve(config.scenario);
  if (entry.factory.make_source) {
    // Source scenario (trace replay): the dataset brings its own
    // topology; a pre-built topology and the generation seed are
    // ignored, and the model stays empty.
    run.source = entry.factory.make_source(config.scenario);
    run.topo_ptr = run.source->topology_ptr();
    return run;
  }
  run.topo_ptr = topo ? std::move(topo)
                      : std::make_shared<const topology>(
                            make_topology(config.topo, config.topo_seed));
  run.model = make_scenario(run.topo(), config.scenario, config.scenario_opts);
  return run;
}

run_artifacts prepare_run(run_config config,
                          std::shared_ptr<const topology> topo) {
  config.reconcile();
  run_artifacts run = prepare_topology(config, std::move(topo));
  if (run.source != nullptr && run.source->has_mask()) {
    // Masked replay cannot materialize — the columnar store has no
    // observed-path plane. Leave `data` empty: evaluators stream from
    // the source, and their fit pass records a requested capture.
    return run;
  }
  // One pass fills the store; a requested capture rides the same pass
  // through the fanout (so record + materialize never simulate twice).
  materialize_sink store(run.data);
  std::unique_ptr<trace_writer> capture = make_capture_writer(config, run);
  if (capture == nullptr && run.source == nullptr) {
    run.data = run_experiment(run.topo(), run.model, config.sim);
    return run;
  }
  fanout_sink fanout;
  fanout.add(&store);
  if (capture != nullptr) fanout.add(capture.get());
  stream_experiment(run, config, fanout);
  return run;
}

void stream_experiment(const run_artifacts& run, const run_config& config,
                       measurement_sink& sink) {
  // A fresh policy per pass: select() depends only on (spec, chunk
  // sequence), so every pass masks identically and the repeatable-
  // replay contract survives the budget.
  std::unique_ptr<probe_policy> policy;
  std::unique_ptr<probe_policy_sink> masked;
  measurement_sink* target = &sink;
  if (!config.plan.policy.empty()) {
    policy = make_probe_policy(probe_policy_spec(config.plan.policy));
    masked = std::make_unique<probe_policy_sink>(*policy, sink);
    target = masked.get();
  }
  if (run.materialized()) {
    replay_experiment(run.topo(), run.data, *target,
                      config.stream.chunk_intervals);
  } else if (run.source != nullptr) {
    run.source->stream(*target, config.stream.chunk_intervals);
  } else {
    run_experiment_streaming(run.topo(), run.model, config.sim, *target,
                             config.stream.chunk_intervals);
  }
}

std::unique_ptr<trace_writer> make_capture_writer(const run_config& config,
                                                  const run_artifacts& run) {
  if (config.capture.path.empty()) return nullptr;
  trace_writer_options options;
  options.store_truth = config.capture.truth && run.has_truth();
  // A probe-budget policy (or a replayed source that is itself masked)
  // produces partially-observed chunks; the capture must store the mask
  // plane so the file replays bit-identically.
  options.store_mask =
      !config.plan.policy.empty() ||
      (run.source != nullptr && run.source->has_mask());
  options.provenance =
      "topo=" + config.topo.to_string() +
      " topo_seed=" + std::to_string(config.topo_seed) +
      " scenario=" + config.scenario.to_string() +
      " scenario_seed=" + std::to_string(config.scenario_opts.seed) +
      " sim_seed=" + std::to_string(config.sim.seed) +
      " intervals=" + std::to_string(config.sim.intervals) +
      " packets=" + std::to_string(config.sim.packets_per_path) +
      (config.sim.oracle_monitor ? " oracle" : "");
  return std::make_unique<trace_writer>(config.capture.path, options);
}

}  // namespace ntom

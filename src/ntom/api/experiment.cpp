#include "ntom/api/experiment.hpp"

#include <cctype>
#include <utility>

#include "ntom/plan/policy.hpp"
#include "ntom/trace/imperfection.hpp"
#include "ntom/util/simd/simd.hpp"

namespace ntom {

namespace {

std::string describe_simd() {
  std::string out = "active=";
  out += simd::level_name(simd::active_level());
  out += " detected=";
  out += simd::level_name(simd::detected_level());
  out += " available=";
  bool first = true;
  for (const simd::level l : simd::available_levels()) {
    if (!first) out += ",";
    out += simd::level_name(l);
    first = false;
  }
  out += "  (override: NTOM_SIMD=<level> or --simd=<level>)\n";
  return out;
}

std::string describe_simd_json() {
  std::string out = "{\"active\": \"";
  out += simd::level_name(simd::active_level());
  out += "\", \"detected\": \"";
  out += simd::level_name(simd::detected_level());
  out += "\", \"available\": [";
  bool first = true;
  for (const simd::level l : simd::available_levels()) {
    if (!first) out += ", ";
    out += "\"";
    out += simd::level_name(l);
    out += "\"";
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace

std::string describe_registries() {
  return "Topologies:\n" + topogen::topology_registry().describe() +
         "\nScenarios:\n" + scenario_registry().describe() +
         "\nEstimators:\n" + estimator_registry().describe() +
         "\nImperfections (trace capture/replay decorators):\n" +
         imperfection_registry().describe() +
         "\nProbe policies (measurement-budget planners):\n" +
         probe_policy_registry().describe() +
         "\nSIMD kernel dispatch (bit kernels, CRC-32):\n  " +
         describe_simd() +
         "\nSpec grammar: name,key=value,...  (bare key = true; 'label=...' "
         "overrides the display label; quote values carrying commas: "
         "file='a,b.trc')\n";
}

std::string describe_registries(const std::string& what) {
  if (what.empty() || what == "true") return describe_registries();
  if (what == "topologies" || what == "topos") {
    return "Topologies:\n" + topogen::topology_registry().describe();
  }
  if (what == "scenarios") {
    return "Scenarios:\n" + scenario_registry().describe();
  }
  if (what == "estimators") {
    return "Estimators:\n" + estimator_registry().describe();
  }
  if (what == "imperfections") {
    return "Imperfections:\n" + imperfection_registry().describe();
  }
  if (what == "policies") {
    return "Probe policies:\n" + probe_policy_registry().describe();
  }
  if (what == "simd") {
    return "SIMD kernel dispatch:\n  " + describe_simd();
  }
  // A registered name or alias from any registry: its full doc block
  // (option whitelist included), so `--list=srlg` shows every accepted
  // spec option of a single component.
  if (topogen::topology_registry().contains(what)) {
    return topogen::topology_registry().describe(what);
  }
  if (scenario_registry().contains(what)) {
    return scenario_registry().describe(what);
  }
  if (estimator_registry().contains(what)) {
    return estimator_registry().describe(what);
  }
  if (imperfection_registry().contains(what)) {
    return imperfection_registry().describe(what);
  }
  if (probe_policy_registry().contains(what)) {
    return probe_policy_registry().describe(what);
  }
  throw spec_error(
      "--list: '" + what +
      "' is neither a registry (topologies, scenarios, estimators, "
      "imperfections, policies, simd) nor a registered name");
}

std::string describe_registries_json() {
  return "{\"topologies\": " + topogen::topology_registry().describe_json() +
         ",\n\"scenarios\": " + scenario_registry().describe_json() +
         ",\n\"estimators\": " + estimator_registry().describe_json() +
         ",\n\"imperfections\": " + imperfection_registry().describe_json() +
         ",\n\"policies\": " + probe_policy_registry().describe_json() +
         ",\n\"simd\": " + describe_simd_json() + "}\n";
}

std::string describe_registries_json(const std::string& what) {
  if (what.empty() || what == "true") return describe_registries_json();
  if (what == "topologies" || what == "topos") {
    return "{\"topologies\": " +
           topogen::topology_registry().describe_json() + "}\n";
  }
  if (what == "scenarios") {
    return "{\"scenarios\": " + scenario_registry().describe_json() + "}\n";
  }
  if (what == "estimators") {
    return "{\"estimators\": " + estimator_registry().describe_json() + "}\n";
  }
  if (what == "imperfections") {
    return "{\"imperfections\": " + imperfection_registry().describe_json() +
           "}\n";
  }
  if (what == "policies") {
    return "{\"policies\": " + probe_policy_registry().describe_json() + "}\n";
  }
  if (what == "simd") {
    return "{\"simd\": " + describe_simd_json() + "}\n";
  }
  if (topogen::topology_registry().contains(what)) {
    return topogen::topology_registry().describe_json(what) + "\n";
  }
  if (scenario_registry().contains(what)) {
    return scenario_registry().describe_json(what) + "\n";
  }
  if (estimator_registry().contains(what)) {
    return estimator_registry().describe_json(what) + "\n";
  }
  if (imperfection_registry().contains(what)) {
    return imperfection_registry().describe_json(what) + "\n";
  }
  if (probe_policy_registry().contains(what)) {
    return probe_policy_registry().describe_json(what) + "\n";
  }
  throw spec_error(
      "--list-json: '" + what +
      "' is neither a registry (topologies, scenarios, estimators, "
      "imperfections, policies, simd) nor a registered name");
}

experiment::experiment() {
  topologies_ = {"brite"};
  scenarios_ = {"random_congestion"};
  estimators_ = {"sparsity", "bayes-indep", "bayes-corr"};
  eval_options_.boolean_metrics = true;
  eval_options_.link_error_metrics = true;
}

experiment& experiment::with_topology(topology_spec s) {
  (void)topogen::topology_registry().resolve(s);
  if (defaults_.topologies) {
    topologies_.clear();
    defaults_.topologies = false;
  }
  topologies_.push_back(std::move(s));
  return *this;
}

experiment& experiment::with_scenario(scenario_spec s) {
  (void)scenario_registry().resolve(s);
  if (defaults_.scenarios) {
    scenarios_.clear();
    defaults_.scenarios = false;
  }
  scenarios_.push_back(std::move(s));
  return *this;
}

experiment& experiment::with_estimator(estimator_spec s) {
  (void)estimator_registry().resolve(s);
  if (defaults_.estimators) {
    estimators_.clear();
    defaults_.estimators = false;
  }
  estimators_.push_back(std::move(s));
  return *this;
}

experiment& experiment::with_estimators(std::vector<estimator_spec> specs) {
  for (estimator_spec& s : specs) with_estimator(std::move(s));
  return *this;
}

experiment& experiment::replicas(std::size_t n) {
  replicas_ = n;
  return *this;
}

experiment& experiment::intervals(std::size_t t) {
  sim_.intervals = t;
  return *this;
}

experiment& experiment::with_sim(const sim_params& sim) {
  sim_ = sim;
  return *this;
}

experiment& experiment::with_scenario_defaults(const scenario_params& params) {
  scenario_defaults_ = params;
  return *this;
}

experiment& experiment::measure_boolean(bool on) {
  eval_options_.boolean_metrics = on;
  return *this;
}

experiment& experiment::measure_link_error(bool on) {
  eval_options_.link_error_metrics = on;
  return *this;
}

experiment& experiment::with_streaming(stream_options stream) {
  stream_ = stream;
  return *this;
}

experiment& experiment::with_capture(capture_options capture) {
  capture_ = std::move(capture);
  return *this;
}

experiment& experiment::with_policy(std::string policy_spec) {
  if (!policy_spec.empty()) {
    // Eager validation, like the other with_* builders.
    (void)make_probe_policy(probe_policy_spec(policy_spec));
  }
  plan_.policy = std::move(policy_spec);
  return *this;
}

experiment& experiment::with_partitioning(partition_options part) {
  if (part.mode != partition_mode::none && part.max_cell_links == 0) {
    throw spec_error("with_partitioning: max_cell_links must be positive");
  }
  part_ = part;
  return *this;
}

experiment& experiment::cache_topologies(bool on) {
  cache_topologies_ = on;
  return *this;
}

experiment& experiment::shard_estimators(bool on) {
  shard_estimators_ = on;
  return *this;
}

std::vector<run_spec> experiment::specs() const {
  // Replicas aggregate by label on purpose; two *grid arms* sharing a
  // label would silently pool incomparable configurations instead.
  std::vector<std::string> grid_labels;
  for (const topology_spec& topo : topologies_) {
    for (const scenario_spec& scenario : scenarios_) {
      const std::string label =
          topology_label(topo) + "/" + scenario_label(scenario);
      for (const std::string& seen : grid_labels) {
        if (seen == label) {
          throw spec_error("experiment: two grid arms share the label '" +
                           label +
                           "' — add a label=... option to disambiguate");
        }
      }
      grid_labels.push_back(label);
    }
  }

  std::vector<run_spec> out;
  out.reserve(replicas_ * topologies_.size() * scenarios_.size());
  for (std::size_t r = 0; r < replicas_; ++r) {
    for (const topology_spec& topo : topologies_) {
      for (const scenario_spec& scenario : scenarios_) {
        run_config config;
        config.topo = topo;
        config.scenario = scenario;
        config.scenario_opts = scenario_defaults_;
        config.sim = sim_;
        config.stream = stream_;
        config.plan = plan_;
        config.part = part_;
        const std::string label =
            topology_label(topo) + "/" + scenario_label(scenario);
        if (!capture_.path.empty()) {
          std::string file;
          for (const char c : label) {
            file += (std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                     c == '.' || c == '-' || c == '_')
                        ? c
                        : '_';
          }
          config.capture.path = capture_.path + "/" + file + "_" +
                                std::to_string(out.size()) + ".trc";
          config.capture.truth = capture_.truth;
        }
        run_spec spec{label, std::move(config)};
        spec.seed_group = r;  // same topology across arms of a replica.
        out.push_back(std::move(spec));
      }
    }
  }
  return out;
}

batch_eval_fn experiment::eval() const {
  return estimator_eval(estimators_, eval_options_);
}

batch_report experiment::run(const batch_params& params,
                             grid_stats* stats) const {
  const estimator_cells cells(estimators_, eval_options_);
  batch_params grid_params = params;
  if (cache_topologies_) grid_params.cache_topologies = *cache_topologies_;
  if (shard_estimators_) grid_params.shard_estimators = *shard_estimators_;
  return run_grid(specs(), cells, grid_params, stats);
}

}  // namespace ntom

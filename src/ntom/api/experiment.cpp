#include "ntom/api/experiment.hpp"

#include <cctype>
#include <optional>
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

/// One section of the registry catalog: its selector (also its JSON
/// key), its text headings, and its describe calls. `find` describes a
/// registered name (nullopt when the section has none); simd has no
/// named entries.
struct catalog_section {
  const char* key;
  const char* title;       ///< heading when the section is selected.
  const char* full_title;  ///< heading in the full text catalog.
  std::string (*text)();
  std::string (*json)();
  std::optional<std::string> (*find)(const std::string& name, bool json);
};

template <auto Registry>
catalog_section registry_section(const char* key, const char* title,
                                 const char* full_title) {
  return {key, title, full_title, [] { return Registry().describe(); },
          [] { return Registry().describe_json(); },
          [](const std::string& name,
             bool json) -> std::optional<std::string> {
            if (!Registry().contains(name)) return std::nullopt;
            return json ? Registry().describe_json(name) + "\n"
                        : Registry().describe(name);
          }};
}

const std::vector<catalog_section>& catalog() {
  static const std::vector<catalog_section> sections = {
      registry_section<&topogen::topology_registry>("topologies", "Topologies",
                                                    "Topologies"),
      registry_section<&scenario_registry>("scenarios", "Scenarios",
                                           "Scenarios"),
      registry_section<&estimator_registry>("estimators", "Estimators",
                                            "Estimators"),
      registry_section<&imperfection_registry>(
          "imperfections", "Imperfections",
          "Imperfections (trace capture/replay decorators)"),
      registry_section<&probe_policy_registry>(
          "policies", "Probe policies",
          "Probe policies (measurement-budget planners)"),
      {"simd", "SIMD kernel dispatch",
       "SIMD kernel dispatch (bit kernels, CRC-32)",
       [] { return "  " + describe_simd(); }, describe_simd_json, nullptr},
  };
  return sections;
}

/// The selected part of the catalog: a section by its key ("topos" is
/// short for "topologies"), else the entry of a registered name or
/// alias from any registry — its full doc block, option whitelist
/// included, so `--list=srlg` shows every accepted spec option of a
/// single component. Unknown selectors name the flag that got the user
/// here.
std::string describe_selected(const std::string& what, bool json) {
  const std::string key = what == "topos" ? "topologies" : what;
  for (const catalog_section& s : catalog()) {
    if (key != s.key) continue;
    return json ? "{\"" + key + "\": " + s.json() + "}\n"
                : s.title + std::string(":\n") + s.text();
  }
  std::string keys;
  for (const catalog_section& s : catalog()) {
    if (s.find != nullptr) {
      if (std::optional<std::string> entry = s.find(what, json)) return *entry;
    }
    keys += keys.empty() ? "" : ", ";
    keys += s.key;
  }
  throw spec_error(std::string(json ? "--list-json" : "--list") + ": '" +
                   what + "' is neither a registry (" + keys +
                   ") nor a registered name");
}

}  // namespace

std::string describe_registries() {
  std::string out;
  for (const catalog_section& s : catalog()) {
    out += out.empty() ? "" : "\n";
    out += s.full_title + std::string(":\n") + s.text();
  }
  return out +
         "\nSpec grammar: name,key=value,...  (bare key = true; 'label=...' "
         "overrides the display label; quote values carrying commas: "
         "file='a,b.trc')\n";
}

std::string describe_registries(const std::string& what) {
  if (what.empty() || what == "true") return describe_registries();
  return describe_selected(what, false);
}

std::string describe_registries_json() {
  std::string out = "{";
  for (const catalog_section& s : catalog()) {
    out += out.size() > 1 ? ",\n\"" : "\"";
    out += s.key;
    out += "\": " + s.json();
  }
  return out + "}\n";
}

std::string describe_registries_json(const std::string& what) {
  if (what.empty() || what == "true") return describe_registries_json();
  return describe_selected(what, true);
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

batch_report experiment::run(const batch_params& params,
                             grid_stats* stats) const {
  const estimator_cells cells(estimators_, eval_options_);
  return run_grid(specs(), cells, params, stats);
}

}  // namespace ntom

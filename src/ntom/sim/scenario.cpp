#include "ntom/sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "ntom/graph/clusters.hpp"
#include "ntom/trace/trace_scenario.hpp"
#include "ntom/util/log.hpp"

namespace ntom {

namespace {

/// Picks one driver router link per chosen AS link, uniformly among the
/// link's underlying router links.
std::vector<router_link_id> drivers_for_links(const topology& t,
                                              const std::vector<link_id>& links,
                                              rng& rand) {
  std::vector<router_link_id> drivers;
  drivers.reserve(links.size());
  for (const link_id e : links) {
    const auto& rl = t.link(e).router_links;
    if (rl.empty()) continue;  // degenerate; link can never be congested.
    drivers.push_back(rl[rand.uniform_index(rl.size())]);
  }
  return drivers;
}

std::vector<link_id> pool_to_vector(const bitvec& pool) {
  std::vector<link_id> out;
  out.reserve(pool.count());
  pool.for_each([&](std::size_t e) { out.push_back(static_cast<link_id>(e)); });
  return out;
}

std::size_t congestable_target(const topology& t,
                               const scenario_params& params) {
  const std::size_t covered = t.covered_links().count();
  return static_cast<std::size_t>(std::llround(
      params.congestable_fraction * static_cast<double>(covered)));
}

/// Finishes every scenario identically: per-phase probabilities for the
/// chosen driver router links, and the induced congestable link set.
congestion_model realize_model(const topology& t,
                               const scenario_params& params,
                               const std::unordered_set<router_link_id>& drivers,
                               rng& rand) {
  congestion_model model;
  const std::size_t phases =
      params.nonstationary ? std::max<std::size_t>(params.num_phases, 1) : 1;
  model.phase_length = params.nonstationary
                           ? params.phase_length
                           : static_cast<std::size_t>(-1);
  model.phase_q.assign(phases, std::vector<double>(t.num_router_links(), 0.0));
  for (auto& q : model.phase_q) {
    for (const auto r : drivers) q[r] = rand.uniform();
  }

  model.congestable_links = bitvec(t.num_links());
  for (const auto r : drivers) {
    for (const link_id e : t.links_on_router_link(r)) {
      model.congestable_links.set(e);
    }
  }
  return model;
}

congestion_model build_random(const topology& t,
                              const scenario_params& params) {
  rng rand(params.seed);
  const std::size_t target = congestable_target(t, params);
  std::unordered_set<router_link_id> driver_set;
  auto pool = pool_to_vector(t.covered_links());
  rand.shuffle(pool);
  pool.resize(std::min(pool.size(), std::max<std::size_t>(target, 1)));
  for (const auto r : drivers_for_links(t, pool, rand)) driver_set.insert(r);
  return realize_model(t, params, driver_set, rand);
}

congestion_model build_concentrated(const topology& t,
                                    const scenario_params& params) {
  // Congestion at the destination edge (the source ISP's own access
  // segments in AS 0 are excluded). Congested edges are picked AS by
  // AS — whole neighbourhoods congest together, as in the paper's toy
  // example where e2 and e3 saturate every path through the core link
  // e1 and make it the (wrong) parsimonious explanation.
  rng rand(params.seed);
  const std::size_t target = congestable_target(t, params);
  std::unordered_set<router_link_id> driver_set;
  std::vector<std::vector<link_id>> edges_by_as(t.num_ases());
  t.covered_links().for_each([&](std::size_t le) {
    const auto e = static_cast<link_id>(le);
    const auto& info = t.link(e);
    if (info.edge && info.as_number != 0) {
      edges_by_as[info.as_number].push_back(e);
    }
  });
  // Busiest edge neighbourhoods first (ties broken by AS id).
  std::vector<as_id> as_order;
  for (as_id a = 0; a < t.num_ases(); ++a) {
    if (!edges_by_as[a].empty()) as_order.push_back(a);
  }
  std::stable_sort(as_order.begin(), as_order.end(), [&](as_id x, as_id y) {
    return edges_by_as[x].size() > edges_by_as[y].size();
  });
  std::vector<link_id> pool;
  for (const as_id a : as_order) {
    if (pool.size() >= std::max<std::size_t>(target, 1)) break;
    for (const link_id e : edges_by_as[a]) pool.push_back(e);
  }
  if (pool.empty()) {
    NTOM_WARN << "concentrated scenario: no destination edge links";
  }
  pool.resize(std::min(pool.size(), std::max<std::size_t>(target, 1)));
  for (const auto r : drivers_for_links(t, pool, rand)) driver_set.insert(r);
  return realize_model(t, params, driver_set, rand);
}

congestion_model build_no_independence(const topology& t,
                                       const scenario_params& params) {
  // Drive congestion only through router links shared by >= 2 AS-level
  // links, so every congestable link co-congests with at least one
  // other.
  rng rand(params.seed);
  const std::size_t target = congestable_target(t, params);
  std::unordered_set<router_link_id> driver_set;
  std::vector<router_link_id> shared;
  for (router_link_id r = 0; r < t.num_router_links(); ++r) {
    std::size_t covered_users = 0;
    for (const link_id e : t.links_on_router_link(r)) {
      if (t.covered_links().test(e)) ++covered_users;
    }
    if (covered_users >= 2) shared.push_back(r);
  }
  rand.shuffle(shared);
  bitvec marked(t.num_links());
  for (const auto r : shared) {
    if (marked.count() >= std::max<std::size_t>(target, 2)) break;
    driver_set.insert(r);
    for (const link_id e : t.links_on_router_link(r)) marked.set(e);
  }
  if (marked.count() < 2) {
    NTOM_WARN << "no-independence scenario: topology has no shared "
                 "router links; model will be empty";
  }
  return realize_model(t, params, driver_set, rand);
}

congestion_model build_srlg(const topology& t, const scenario_params& params,
                            const spec& s) {
  // Shared-risk link groups from the topology's AS clustering: each AS
  // with enough covered links is one candidate group (its covered
  // links' router links fire as a unit); groups are drawn at random
  // until the union of their links reaches the congestable target.
  rng rand(params.seed);
  const std::size_t target = congestable_target(t, params);
  const std::size_t min_group = s.get_size("min_group", 2);
  if (min_group == 0) {
    throw spec_error("scenario 'srlg': min_group must be positive");
  }

  // The per-AS clusters (graph/clusters.hpp) are the candidate groups;
  // the helper applies the identical min_group filter this code always
  // had, so the drawn groups are bit-identical to the inline version.
  std::vector<as_cluster> candidates = as_clusters(t, min_group);
  rand.shuffle(candidates);

  congestion_model model;
  const std::size_t phases =
      params.nonstationary ? std::max<std::size_t>(params.num_phases, 1) : 1;
  model.phase_length = params.nonstationary
                           ? params.phase_length
                           : static_cast<std::size_t>(-1);
  model.phase_q.assign(phases, std::vector<double>(t.num_router_links(), 0.0));
  model.congestable_links = bitvec(t.num_links());

  bitvec marked(t.num_links());
  for (as_cluster& c : candidates) {
    if (marked.count() >= std::max(target, min_group)) break;
    for (const link_id e : c.links) marked.set(e);
    risk_group group;
    group.members = std::move(c.members);
    for (const router_link_id r : group.members) {
      for (const link_id e : t.links_on_router_link(r)) {
        model.congestable_links.set(e);
      }
    }
    model.groups.push_back(std::move(group));
  }
  if (model.groups.empty()) {
    NTOM_WARN << "srlg scenario: no AS holds " << min_group
              << "+ covered links; model will be empty";
  }
  model.phase_group_q.assign(phases,
                             std::vector<double>(model.groups.size(), 0.0));
  for (auto& gq : model.phase_group_q) {
    for (double& q : gq) q = rand.uniform();
  }
  return model;
}

congestion_model build_gilbert(const topology& t,
                               const scenario_params& params, const spec& s) {
  // Per-link bursty congestion: the random-congestion link choice, but
  // each driver is ruled by a two-state Gilbert–Elliott chain instead
  // of i.i.d. interval draws. Mean sojourns come from the burst/gap
  // options; the bad-state congestion probability is U(0,1) per link
  // (the U(0,1) idiom of the stationary scenarios); the initial state
  // is drawn from the stationary distribution so the analytic marginal
  // holds at every interval.
  rng rand(params.seed);
  const double burst = s.get_double("burst", 8.0);
  const double gap = s.get_double("gap", 72.0);
  const double q_good = s.get_double("q_good", 0.0);
  if (burst < 1.0 || gap < 1.0) {
    throw spec_error("scenario 'gilbert': burst and gap must be >= 1");
  }
  if (q_good < 0.0 || q_good > 1.0) {
    throw spec_error("scenario 'gilbert': q_good must be in [0, 1]");
  }

  const std::size_t target = congestable_target(t, params);
  auto pool = pool_to_vector(t.covered_links());
  rand.shuffle(pool);
  pool.resize(std::min(pool.size(), std::max<std::size_t>(target, 1)));

  congestion_model model;
  model.phase_q.assign(1, std::vector<double>(t.num_router_links(), 0.0));
  model.congestable_links = bitvec(t.num_links());
  std::unordered_set<router_link_id> seen;
  for (const router_link_id r : drivers_for_links(t, pool, rand)) {
    if (!seen.insert(r).second) continue;
    gilbert_chain chain;
    chain.driver = r;
    chain.p_exit_bad = 1.0 / burst;
    chain.p_enter_bad = 1.0 / gap;
    chain.q_bad = rand.uniform();
    chain.q_good = q_good;
    chain.start_bad = rand.bernoulli(chain.stationary_bad());
    for (const link_id e : t.links_on_router_link(r)) {
      model.congestable_links.set(e);
    }
    model.chains.push_back(chain);
  }
  return model;
}

congestion_model build_hotspot_drift(const topology& t,
                                     const scenario_params& params,
                                     const spec& s) {
  // A congestion hot-spot random-walking over the AS adjacency graph:
  // every phase, the drivers are the router links under the covered
  // links within `radius` AS hops of the current centre, with fresh
  // U(0,1) probabilities; then the centre steps to a uniform neighbour.
  rng rand(params.seed);
  const std::size_t radius = s.get_size("radius", 1);
  const std::size_t target = congestable_target(t, params);

  // AS adjacency from the monitored paths: two ASes are adjacent when
  // their links appear consecutively on some path.
  std::vector<std::vector<as_id>> adjacent(t.num_ases());
  const auto link_as = [&](link_id e) { return t.link(e).as_number; };
  for (const path& p : t.paths()) {
    const auto& links = p.links();
    for (std::size_t i = 1; i < links.size(); ++i) {
      const as_id a = link_as(links[i - 1]);
      const as_id b = link_as(links[i]);
      if (a == b) continue;
      auto& na = adjacent[a];
      auto& nb = adjacent[b];
      if (std::find(na.begin(), na.end(), b) == na.end()) na.push_back(b);
      if (std::find(nb.begin(), nb.end(), a) == nb.end()) nb.push_back(a);
    }
  }

  std::vector<as_id> eligible;
  for (as_id a = 0; a < t.num_ases(); ++a) {
    bitvec in_as = t.links_in_as(a);
    in_as &= t.covered_links();
    if (in_as.count() > 0) eligible.push_back(a);
  }

  congestion_model model;
  const std::size_t phases = std::max<std::size_t>(params.num_phases, 1);
  model.phase_length = params.phase_length;
  model.phase_q.assign(phases, std::vector<double>(t.num_router_links(), 0.0));
  model.congestable_links = bitvec(t.num_links());
  if (eligible.empty()) {
    NTOM_WARN << "hotspot_drift scenario: no AS has covered links; "
                 "model will be empty";
    return model;
  }

  as_id centre = eligible[rand.uniform_index(eligible.size())];
  for (std::size_t k = 0; k < phases; ++k) {
    // Neighbourhood of the centre, breadth-first up to `radius` hops.
    std::vector<as_id> frontier = {centre};
    std::vector<char> visited(t.num_ases(), 0);
    visited[centre] = 1;
    for (std::size_t hop = 0; hop < radius && !frontier.empty(); ++hop) {
      std::vector<as_id> next;
      for (const as_id a : frontier) {
        for (const as_id b : adjacent[a]) {
          if (visited[b] == 0) {
            visited[b] = 1;
            next.push_back(b);
          }
        }
      }
      frontier = std::move(next);
    }

    std::vector<link_id> pool;
    t.covered_links().for_each([&](std::size_t le) {
      const auto e = static_cast<link_id>(le);
      if (visited[link_as(e)] != 0) pool.push_back(e);
    });
    rand.shuffle(pool);
    pool.resize(std::min(pool.size(), std::max<std::size_t>(target, 1)));

    std::unordered_set<router_link_id> assigned;
    for (const router_link_id r : drivers_for_links(t, pool, rand)) {
      if (!assigned.insert(r).second) continue;
      model.phase_q[k][r] = rand.uniform();
      for (const link_id e : t.links_on_router_link(r)) {
        model.congestable_links.set(e);
      }
    }

    const auto& steps = adjacent[centre];
    if (!steps.empty()) centre = steps[rand.uniform_index(steps.size())];
  }
  return model;
}

/// Common options every scenario accepts. Idempotent.
scenario_params apply_common_options(scenario_params p, const spec& s) {
  p.congestable_fraction = s.get_double("fraction", p.congestable_fraction);
  p.nonstationary = s.get_bool("nonstationary", p.nonstationary);
  const std::int64_t phase_length =
      s.get_int("phase_length", static_cast<std::int64_t>(p.phase_length));
  if (phase_length <= 0) {
    throw spec_error("scenario '" + s.name() +
                     "': phase_length must be positive");
  }
  p.phase_length = static_cast<std::size_t>(phase_length);
  return p;
}

const std::vector<option_doc>& common_option_docs() {
  static const std::vector<option_doc> docs = {
      {"fraction", "fraction of covered links made congestable (default 0.10)"},
      {"nonstationary", "redraw probabilities every phase_length intervals"},
      {"phase_length", "intervals per non-stationary phase (default 50)"},
  };
  return docs;
}

void register_builtins(registry<scenario_plugin>& reg) {
  using build_fn = congestion_model (*)(const topology&,
                                        const scenario_params&);
  const auto stationary_entry = [](std::string name, std::string display,
                                   std::string doc,
                                   std::vector<std::string> aliases,
                                   build_fn build) {
    return registry<scenario_plugin>::entry{
        std::move(name),
        std::move(display),
        std::move(doc),
        std::move(aliases),
        common_option_docs(),
        {apply_common_options,
         [build](const topology& t, const scenario_params& p, const spec&) {
           return build(t, p);
         },
         nullptr},
    };
  };

  reg.add(stationary_entry(
      "random_congestion", "Random Congestion",
      "congestable links chosen uniformly at random, probabilities U(0,1)",
      {"random"}, build_random));
  reg.add(stationary_entry(
      "concentrated_congestion", "Concentrated Congestion",
      "congestable links concentrated at the destination network edge",
      {"concentrated"}, build_concentrated));
  reg.add(stationary_entry(
      "no_independence", "No Independence",
      "every congestable link shares a driver router link with another",
      {"noindep"}, build_no_independence));

  // Correlated-failure family: spec-configured builders (they read
  // their extra options from the spec at build time).
  std::vector<option_doc> srlg_options = common_option_docs();
  srlg_options.push_back(
      {"min_group", "minimum covered links for an AS to form a group "
                    "(default 2)"});
  reg.add({
      "srlg",
      "Shared-Risk Groups",
      "shared-risk link groups from AS clustering fire as whole units",
      {"shared_risk"},
      std::move(srlg_options),
      {apply_common_options, build_srlg, nullptr},
  });

  reg.add({
      "gilbert",
      "Gilbert Bursts",
      "per-link two-state Gilbert-Elliott congestion (bursty, "
      "time-correlated)",
      {"gilbert_elliott", "bursty"},
      {{"fraction",
        "fraction of covered links made congestable (default 0.10)"},
       {"burst", "mean bad-state sojourn in intervals (default 8)"},
       {"gap", "mean good-state sojourn in intervals (default 72)"},
       {"q_good", "congestion probability in the good state (default 0)"}},
      {[](scenario_params p, const spec& s) {
         p.congestable_fraction =
             s.get_double("fraction", p.congestable_fraction);
         // Gilbert's time structure lives in the chains, not in phases:
         // a batch-wide nonstationary default is meaningless here and
         // would otherwise pre-draw phases nothing reads (the spec key
         // itself is rejected by the option whitelist).
         p.nonstationary = false;
         return p;
       },
       build_gilbert,
       nullptr},
  });

  // No `nonstationary` in the whitelist: the drift IS the
  // nonstationarity, so an explicit setting would be silently
  // meaningless — reject it loudly instead.
  reg.add({
      "hotspot_drift",
      "Hotspot Drift",
      "a congestion hot-spot random-walks across the AS graph every "
      "phase_length intervals",
      {"hotspot"},
      {{"fraction",
        "fraction of covered links made congestable (default 0.10)"},
       {"phase_length",
        "intervals the hot-spot dwells per position (default 50)"},
       {"radius", "AS hops included around the hot-spot centre (default 1)"}},
      {[](scenario_params p, const spec& s) {
         p = apply_common_options(p, s);
         p.nonstationary = true;
         return p;
       },
       build_hotspot_drift,
       nullptr},
  });

  // no_stationarity layers per-phase probability redraws on a base
  // scenario (Fig. 3 layers it on no_independence).
  std::vector<option_doc> nostat_options = common_option_docs();
  nostat_options.push_back(
      {"base", "base scenario to layer on (default no_independence)"});
  reg.add({
      "no_stationarity",
      "No Stationarity",
      "redraws the base scenario's probabilities every few intervals",
      {"nostat"},
      std::move(nostat_options),
      {[](scenario_params p, const spec& s) {
         p = apply_common_options(p, s);
         p.nonstationary = true;
         return p;
       },
       [](const topology& t, const scenario_params& p, const spec& s) {
         if (p.num_phases == 0) {
           // Built as one phase, it would silently equal its base.
           throw spec_error(
               "scenario 'no_stationarity': num_phases is unset; "
               "run_config::reconcile sets it from the run's intervals");
         }
         const std::string base = s.get_string("base", "no_independence");
         const auto& entry = scenario_registry().at(base);
         if (entry.name == "no_stationarity") {
           throw spec_error("scenario 'no_stationarity' cannot layer on itself");
         }
         // The base's own options cannot be set through this spec; it
         // builds from the already-configured params.
         congestion_model model = entry.factory.build(t, p, spec(base));
         if (p.num_phases > 1 && model.num_phases() < 2) {
           // A base that ignored the phase request (gilbert: chains,
           // not phases) would silently report stationary results
           // under a "No Stationarity" label.
           throw spec_error("scenario 'no_stationarity': base '" + base +
                            "' does not support phase redraws");
         }
         return model;
       },
       nullptr},
  });

  // Captured-dataset replay (trace/trace_scenario.cpp): recorded
  // measurements ride the experiment pipeline as one more scenario.
  register_trace_scenario(reg);
}

}  // namespace

registry<scenario_plugin>& scenario_registry() {
  static registry<scenario_plugin>* reg = [] {
    auto* r = new registry<scenario_plugin>("scenario");
    register_builtins(*r);
    // Per-arm probe-budget policies ride the scenario spec
    // (`gilbert,policy='uniform,frac=0.25'`); run_config::reconcile
    // extracts the option, the scenario factories ignore it.
    r->accept_universal_key("policy");
    return r;
  }();
  return *reg;
}

scenario_params apply_scenario_spec(const scenario_spec& s,
                                    scenario_params params) {
  const auto& entry = scenario_registry().resolve(s);
  return entry.factory.configure(params, s);
}

congestion_model make_scenario(const topology& t, const scenario_spec& s,
                               const scenario_params& params) {
  const auto& entry = scenario_registry().resolve(s);
  const scenario_params configured = entry.factory.configure(params, s);
  return entry.factory.build(t, configured, s);
}

std::string scenario_label(const scenario_spec& s) {
  if (s.has("label")) return s.get_string("label");
  return scenario_registry().at(s.name()).display;
}

bool scenario_is_source(const scenario_spec& s) noexcept {
  try {
    return scenario_registry().at(s.name()).factory.make_source != nullptr;
  } catch (...) {
    return false;  // unknown name: the run's own resolve reports it.
  }
}

}  // namespace ntom

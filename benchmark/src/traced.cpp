#include "traced.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "ntom/api/estimator.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/topogen/registry.hpp"
#include "spans.hpp"

namespace bench {

namespace {

const std::string traced_prefix = "traced-";

/// Forwards every virtual of the wrapped estimator and times the call:
/// coarse calls as spans, per-interval and per-chunk calls folded.
class traced_estimator final : public ntom::estimator {
 public:
  traced_estimator(std::unique_ptr<ntom::estimator> inner,
                   const std::string& label)
      : inner_(std::move(inner)),
        caps_name_("api.caps." + label),
        fit_name_("api.fit." + label),
        begin_fit_name_("api.begin_fit." + label),
        consume_name_("api.consume." + label),
        end_fit_name_("api.end_fit." + label),
        begin_window_name_("api.begin_window." + label),
        retire_name_("api.retire." + label),
        refit_name_("api.refit." + label),
        infer_name_("api.infer." + label),
        links_name_("api.links." + label) {}

  [[nodiscard]] ntom::estimator_caps caps() const noexcept override {
    const folded_call call(caps_name_);
    return inner_->caps();
  }
  void fit(const ntom::topology& t,
           const ntom::experiment_data& data) override {
    const scoped_span span(fit_name_);
    inner_->fit(t, data);
  }
  void begin_fit(const ntom::topology& t, std::size_t intervals) override {
    const scoped_span span(begin_fit_name_);
    inner_->begin_fit(t, intervals);
  }
  void consume(const ntom::measurement_chunk& chunk) override {
    const folded_call call(consume_name_);
    inner_->consume(chunk);
  }
  void end_fit() override {
    const scoped_span span(end_fit_name_);
    inner_->end_fit();
  }
  void begin_window(const ntom::topology& t) override {
    const scoped_span span(begin_window_name_);
    inner_->begin_window(t);
  }
  void retire(const ntom::measurement_chunk& chunk) override {
    const scoped_span span(retire_name_);
    inner_->retire(chunk);
  }
  void refit() override {
    const scoped_span span(refit_name_);
    inner_->refit();
  }
  [[nodiscard]] ntom::bitvec infer(
      const ntom::bitvec& congested_paths) const override {
    const folded_call call(infer_name_);
    return inner_->infer(congested_paths);
  }
  [[nodiscard]] ntom::bitvec infer(
      const ntom::bitvec& congested_paths,
      const ntom::bitvec& observed_paths) const override {
    const folded_call call(infer_name_);
    return inner_->infer(congested_paths, observed_paths);
  }
  [[nodiscard]] ntom::link_estimates links() const override {
    const scoped_span span(links_name_);
    return inner_->links();
  }

 private:
  std::unique_ptr<ntom::estimator> inner_;
  std::string caps_name_;
  std::string fit_name_;
  std::string begin_fit_name_;
  std::string consume_name_;
  std::string end_fit_name_;
  std::string begin_window_name_;
  std::string retire_name_;
  std::string refit_name_;
  std::string infer_name_;
  std::string links_name_;
};

const std::string topogen_span = "topogen.generate";
const std::string scenario_span = "sim.scenario";
const std::string source_span = "trace.open";
const std::string materialize_sim_span = "sim.materialize";
const std::string materialize_trace_span = "trace.materialize";
const std::string run_state_span = "exp.run_state";
const std::string cell_span = "exp.cell";

/// End of the calling thread's last prepare-phase span (scenario build
/// or source open) and which it was; run_grid prepares a run on one
/// thread, so make_run_state on the same thread closes the gap that run
/// preparation spent simulating (or reading a trace into the store).
thread_local std::int64_t prepare_mark = -1;
thread_local bool prepare_mark_is_source = false;

std::atomic<std::int64_t> next_cell{0};

template <typename Factory>
typename ntom::registry<Factory>::entry traced_entry(
    const typename ntom::registry<Factory>::entry& e, Factory factory) {
  typename ntom::registry<Factory>::entry copy;
  copy.name = traced_prefix + e.name;
  copy.display = e.display;
  copy.doc = e.doc;
  copy.options = e.options;  // aliases stay with the original entry.
  copy.factory = std::move(factory);
  return copy;
}

void register_estimators() {
  auto& reg = ntom::estimator_registry();
  const auto entries = reg.entries();
  for (const auto& e : entries) {
    ntom::estimator_factory inner = e.factory;
    const std::string label = e.display;
    reg.add(traced_entry<ntom::estimator_factory>(
        e, [inner, label](const ntom::spec& s) -> std::unique_ptr<ntom::estimator> {
          return std::make_unique<traced_estimator>(inner(s), label);
        }));
  }
}

void register_topologies() {
  auto& reg = ntom::topogen::topology_registry();
  const auto entries = reg.entries();
  for (const auto& e : entries) {
    ntom::topogen::topology_factory inner = e.factory;
    reg.add(traced_entry<ntom::topogen::topology_factory>(
        e, [inner](const ntom::spec& s, std::uint64_t seed) {
          const scoped_span span(topogen_span);
          return inner(s, seed);
        }));
  }
}

void register_scenarios() {
  auto& reg = ntom::scenario_registry();
  const auto entries = reg.entries();
  for (const auto& e : entries) {
    ntom::scenario_plugin plugin = e.factory;
    ntom::scenario_plugin traced;
    traced.configure = plugin.configure;
    if (plugin.build) {
      traced.build = [build = plugin.build](const ntom::topology& t,
                                            const ntom::scenario_params& p,
                                            const ntom::spec& s) {
        ntom::congestion_model model;
        {
          const scoped_span span(scenario_span);
          model = build(t, p, s);
        }
        prepare_mark = now_ns();
        prepare_mark_is_source = false;
        return model;
      };
    }
    if (plugin.make_source) {
      traced.make_source = [open = plugin.make_source](const ntom::spec& s) {
        std::shared_ptr<const ntom::measurement_source> source;
        {
          const scoped_span span(source_span);
          source = open(s);
        }
        prepare_mark = now_ns();
        prepare_mark_is_source = true;
        return source;
      };
    }
    reg.add(traced_entry<ntom::scenario_plugin>(e, std::move(traced)));
  }
}

}  // namespace

void register_traced_components() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_estimators();
    register_topologies();
    register_scenarios();
  });
}

std::string traced_name(const std::string& spec_text, bool traced) {
  return traced ? traced_prefix + spec_text : spec_text;
}

std::size_t traced_cells::shards(const ntom::run_config& config) const {
  return inner_->shards(config);
}

std::shared_ptr<void> traced_cells::make_run_state(
    const ntom::run_config& config, const ntom::run_artifacts& run) const {
  if (tracing() && prepare_mark >= 0 && !config.stream.enabled) {
    record_span(prepare_mark_is_source ? materialize_trace_span
                                       : materialize_sim_span,
                prepare_mark, now_ns());
  }
  prepare_mark = -1;
  const scoped_span span(run_state_span);
  return inner_->make_run_state(config, run);
}

std::vector<ntom::measurement> traced_cells::eval_cell(
    const ntom::run_config& config, const ntom::run_artifacts& run,
    void* run_state, std::size_t shard) const {
  struct cell_scope {
    std::int64_t outer = current_cell();
    cell_scope() { set_current_cell(next_cell.fetch_add(1)); }
    ~cell_scope() { set_current_cell(outer); }
  } scope;
  const scoped_span span(
      cell_span, run.replayed()
                     ? "replay"
                     : (config.stream.enabled ? "live" : "materialized"));
  return inner_->eval_cell(config, run, run_state, shard);
}

}  // namespace bench

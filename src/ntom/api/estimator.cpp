#include "ntom/api/estimator.hpp"

#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "ntom/infer/bayes_map.hpp"
#include "ntom/infer/observation.hpp"
#include "ntom/infer/sparsity.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/tomo/correlation_heuristic.hpp"
#include "ntom/tomo/independence.hpp"

namespace ntom {

bitvec estimator::infer(const bitvec&) const {
  throw std::logic_error("estimator does not support Boolean inference");
}

bitvec estimator::infer(const bitvec& congested_paths,
                        const bitvec& observed_paths) const {
  if (observed_paths.empty()) return infer(congested_paths);
  throw std::logic_error(
      "estimator does not support masked (probe-budget) inference");
}

link_estimates estimator::links() const {
  throw std::logic_error("estimator does not support link estimation");
}

void estimator::fit(const topology& t, const experiment_data& data) {
  // Clear the guard on every exit, so a failed fit leaves the estimator
  // reusable.
  struct guard {
    bool& flag;
    explicit guard(bool& f) : flag(f) { flag = true; }
    ~guard() { flag = false; }
  } replaying(replaying_store_);
  estimator_fit_sink sink(*this);
  replay_experiment(t, data, sink);
}

void estimator::begin_fit(const topology& t, std::size_t intervals) {
  if (replaying_store_) {
    // fit() is the default too: neither protocol is implemented.
    throw std::logic_error(
        "estimator implements neither fit() nor begin_fit/consume/end_fit");
  }
  store_topo_ = &t;
  materialize_sink(store_.emplace()).begin(t, intervals);
}

void estimator::consume(const measurement_chunk& chunk) {
  if (!chunk.fully_observed()) {
    throw spec_error(
        "masked measurement streams require chunk-protocol estimators: "
        "this estimator fits on the materialized store, which has no "
        "observed-path plane");
  }
  materialize_sink(*store_).consume(chunk);
}

void estimator::end_fit() {
  materialize_sink(*store_).end();
  const experiment_data data = std::move(*store_);
  store_.reset();
  fit(*store_topo_, data);
}

void estimator::begin_window(const topology& t) {
  if (!caps().windowed) {
    throw std::logic_error("estimator does not support windowed fits");
  }
  begin_fit(t, 0);
}

void estimator::retire(const measurement_chunk&) {
  throw std::logic_error("estimator does not support windowed fits");
}

void estimator::refit() {
  throw std::logic_error("estimator does not support windowed fits");
}

namespace {

// ------------------------------------------------------------ adapters

/// Sparsity has no fitting step: each interval is solved greedily from
/// its own observation — trivially streaming.
class sparsity_estimator final : public estimator {
 public:
  [[nodiscard]] estimator_caps caps() const noexcept override {
    return {.boolean_inference = true,
            .link_estimation = false,
            .windowed = true};
  }

  // No fitted state at all, so every protocol step but the first is a
  // no-op.
  void begin_fit(const topology& t, std::size_t) override { topo_ = &t; }
  void consume(const measurement_chunk&) override {}
  void end_fit() override {}
  void retire(const measurement_chunk&) override {}
  void refit() override {}

  [[nodiscard]] bitvec infer(const bitvec& congested_paths) const override {
    return infer_sparsity(*topo_, make_observation(*topo_, congested_paths));
  }

  [[nodiscard]] bitvec infer(const bitvec& congested_paths,
                             const bitvec& observed_paths) const override {
    return infer_sparsity(
        *topo_, make_observation(*topo_, congested_paths, observed_paths));
  }

 private:
  const topology* topo_ = nullptr;
};

/// Shared streaming-fit scaffolding for the counter-based fits: the
/// topology-determined equation family is registered with a
/// pathset_counter at begin_fit, chunks stream into (and, in a window,
/// retire from) the counters, and refit hands the exact counts to the
/// subclass's solver. end_fit is refit plus releasing the counters, so
/// a window fit is bit-identical to begin_fit/consume/end_fit over the
/// same chunks.
class counting_estimator : public estimator {
 public:
  void begin_fit(const topology& t, std::size_t intervals) override {
    topo_ = &t;
    counter_.emplace(equation_path_sets(t));
    counter_->begin(t, intervals);
  }

  void consume(const measurement_chunk& chunk) override {
    counter_->consume(chunk);
  }

  void retire(const measurement_chunk& chunk) override {
    counter_->retire(chunk);
  }

  void refit() override {
    solve_from_counts(*topo_, counter_->sets(), counter_->counts(),
                      counter_->observed_intervals(),
                      counter_->always_good_paths());
  }

  void end_fit() override {
    refit();
    counter_.reset();
  }

 protected:
  [[nodiscard]] const topology& topo() const noexcept { return *topo_; }

  /// The (topology-determined) path-set family to count.
  [[nodiscard]] virtual std::vector<bitvec> equation_path_sets(
      const topology& t) const = 0;

  /// Finish the fit from exact counters (same solver the materialized
  /// fit uses — bit-identical outputs). `observed` holds the per-set
  /// denominators: equal to the stream length everywhere on unmasked
  /// streams, and the fully-observed interval count per set under a
  /// probe-budget mask.
  virtual void solve_from_counts(const topology& t,
                                 const std::vector<bitvec>& sets,
                                 const std::vector<std::size_t>& counts,
                                 const std::vector<std::size_t>& observed,
                                 const bitvec& always_good) = 0;

 private:
  const topology* topo_ = nullptr;
  std::optional<pathset_counter> counter_;
};

/// Independence (CLINK's step 1): per-link probabilities from the
/// single-path and path-pair equations.
class independence_estimator : public counting_estimator {
 public:
  explicit independence_estimator(independence_params params)
      : params_(params) {}

  [[nodiscard]] estimator_caps caps() const noexcept override {
    return {.boolean_inference = false,
            .link_estimation = true,
            .windowed = true};
  }

  [[nodiscard]] link_estimates links() const override { return result_.links; }

 protected:
  [[nodiscard]] std::vector<bitvec> equation_path_sets(
      const topology& t) const override {
    return independence_path_sets(t, params_);
  }

  void solve_from_counts(const topology& t, const std::vector<bitvec>& sets,
                         const std::vector<std::size_t>& counts,
                         const std::vector<std::size_t>& observed,
                         const bitvec& always_good) override {
    result_ = solve_independence(t, sets, counts, observed, always_good);
  }

  independence_params params_;
  independence_result result_;
};

/// Bayesian-Independence (the paper's name for CLINK [11]): the
/// Independence fit, then a greedy MAP per interval over its per-link
/// probabilities. Both steps inherit the Independence assumption, so
/// correlated links get wrong probabilities and the MAP step prefers
/// wrong solutions (§3.1's {e1,e3} vs {e2,e3} example).
class bayes_independence_estimator final : public independence_estimator {
 public:
  using independence_estimator::independence_estimator;

  [[nodiscard]] estimator_caps caps() const noexcept override {
    return {.boolean_inference = true,
            .link_estimation = true,
            .windowed = true};
  }

  [[nodiscard]] bitvec infer(const bitvec& congested_paths) const override {
    return infer(congested_paths, bitvec());
  }

  [[nodiscard]] bitvec infer(const bitvec& congested_paths,
                             const bitvec& observed_paths) const override {
    return map_independent(
        topo(), make_observation(topo(), congested_paths, observed_paths),
        result_.links.congestion);
  }
};

class correlation_heuristic_estimator final : public counting_estimator {
 public:
  explicit correlation_heuristic_estimator(correlation_heuristic_params params)
      : params_(params) {}

  [[nodiscard]] estimator_caps caps() const noexcept override {
    return {.boolean_inference = false,
            .link_estimation = true,
            .windowed = true};
  }

  [[nodiscard]] link_estimates links() const override {
    return result_->estimates.to_link_estimates();
  }

 protected:
  [[nodiscard]] std::vector<bitvec> equation_path_sets(
      const topology& t) const override {
    return correlation_heuristic_path_sets(t, params_);
  }

  void solve_from_counts(const topology& t, const std::vector<bitvec>& sets,
                         const std::vector<std::size_t>& counts,
                         const std::vector<std::size_t>& observed,
                         const bitvec& always_good) override {
    result_.emplace(solve_correlation_heuristic(t, sets, counts, observed,
                                                always_good, params_));
  }

 private:
  correlation_heuristic_params params_;
  std::optional<correlation_heuristic_result> result_;
};

class correlation_complete_estimator : public estimator {
 public:
  explicit correlation_complete_estimator(correlation_complete_params params)
      : params_(params) {}

  [[nodiscard]] estimator_caps caps() const noexcept override {
    return {.boolean_inference = false, .link_estimation = true};
  }

  void fit(const topology& t, const experiment_data& data) override {
    result_.emplace(compute_correlation_complete(t, data, params_));
  }

  [[nodiscard]] link_estimates links() const override {
    return result_->estimates.to_link_estimates();
  }

 protected:
  correlation_complete_params params_;
  std::optional<correlation_complete_result> result_;
};

/// Bayesian-Correlation, the authors' inference algorithm [10] (§3.1):
/// the Correlation-complete fit, then a greedy MAP per interval whose
/// scoring uses the joint subset probabilities. It drops the
/// Independence assumption but keeps the expected-value approximation
/// across time scales (hence the No-Stationarity failure); when
/// Identifiability++ fails, indistinguishable solutions tie.
class bayes_correlation_estimator final
    : public correlation_complete_estimator {
 public:
  using correlation_complete_estimator::correlation_complete_estimator;

  [[nodiscard]] estimator_caps caps() const noexcept override {
    return {.boolean_inference = true, .link_estimation = true};
  }

  void fit(const topology& t, const experiment_data& data) override {
    map_tables_.reset();  // it refers to the fit being replaced.
    correlation_complete_estimator::fit(t, data);
    topo_ = &t;
    marginals_ = result_->estimates.to_link_estimates();
    map_tables_.emplace(t, result_->estimates, marginals_);
  }

  [[nodiscard]] bitvec infer(const bitvec& congested_paths) const override {
    return infer(congested_paths, bitvec());
  }

  [[nodiscard]] bitvec infer(const bitvec& congested_paths,
                             const bitvec& observed_paths) const override {
    const interval_observation obs =
        make_observation(*topo_, congested_paths, observed_paths);
    bitvec solution;
    const std::lock_guard<std::mutex> lock(map_mutex_);
    map_correlated(obs, *map_tables_, solution);
    return solution;
  }

  [[nodiscard]] link_estimates links() const override { return marginals_; }

 private:
  const topology* topo_ = nullptr;
  /// links(), computed once at fit time: the MAP search's fallback
  /// scoring reads it on every interval.
  link_estimates marginals_;
  /// The MAP search's per-fit tables. infer() writes to them, so
  /// concurrent infer() calls take turns.
  mutable std::mutex map_mutex_;
  mutable std::optional<map_correlated_tables> map_tables_;
};

// --------------------------------------------------------- registration

independence_params independence_from_spec(const spec& s) {
  independence_params p;
  p.max_pair_equations = s.get_size("pairs", p.max_pair_equations);
  return p;
}

correlation_complete_params complete_from_spec(const spec& s) {
  correlation_complete_params p;
  p.min_all_good_count = s.get_size("min_all_good", p.min_all_good_count);
  return p;
}

void register_builtins(registry<estimator_factory>& reg) {
  const std::vector<option_doc> indep_options = {
      {"pairs", "cap on pair-of-paths equations (default 6000)"}};
  const std::vector<option_doc> complete_options = {
      {"min_all_good",
       "minimum all-good count for a usable equation (default 3)"}};

  reg.add({"sparsity",
           "Sparsity",
           "greedy most-parsimonious Boolean inference (Tomo / SCFS)",
           {"tomo"},
           {},
           [](const spec&) -> std::unique_ptr<estimator> {
             return std::make_unique<sparsity_estimator>();
           }});
  reg.add({"bayes-indep",
           "Bayes-Indep",
           "CLINK: Independence probabilities + greedy MAP per interval",
           {"bayes-independence", "clink"},
           indep_options,
           [](const spec& s) -> std::unique_ptr<estimator> {
             return std::make_unique<bayes_independence_estimator>(
                 independence_from_spec(s));
           }});
  reg.add({"bayes-corr",
           "Bayes-Corr",
           "Correlation-complete probabilities + greedy MAP per interval",
           {"bayes-correlation"},
           complete_options,
           [](const spec& s) -> std::unique_ptr<estimator> {
             return std::make_unique<bayes_correlation_estimator>(
                 complete_from_spec(s));
           }});
  reg.add({"independence",
           "Independence",
           "per-link probabilities under the Independence assumption",
           {},
           indep_options,
           [](const spec& s) -> std::unique_ptr<estimator> {
             return std::make_unique<independence_estimator>(
                 independence_from_spec(s));
           }});
  reg.add({"corr-heuristic",
           "Corr-heuristic",
           "correlation-aware probabilities, flooded equation set (IMC'10)",
           {"correlation-heuristic"},
           {{"pairs", "cap on pair equations (default 4000)"},
            {"triples", "cap on triple equations (default 2000)"}},
           [](const spec& s) -> std::unique_ptr<estimator> {
             correlation_heuristic_params p;
             p.max_pair_equations =
                 s.get_size("pairs", p.max_pair_equations);
             p.max_triple_equations =
                 s.get_size("triples", p.max_triple_equations);
             return std::make_unique<correlation_heuristic_estimator>(p);
           }});
  reg.add({"corr-complete",
           "Corr-complete",
           "the paper's Probability Computation (Algorithm 1 + log LSQ)",
           {"correlation-complete"},
           complete_options,
           [](const spec& s) -> std::unique_ptr<estimator> {
             return std::make_unique<correlation_complete_estimator>(
                 complete_from_spec(s));
           }});
}

}  // namespace

registry<estimator_factory>& estimator_registry() {
  static registry<estimator_factory>* reg = [] {
    auto* r = new registry<estimator_factory>("estimator");
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

std::unique_ptr<estimator> make_estimator(const estimator_spec& s) {
  const auto& entry = estimator_registry().resolve(s);
  return entry.factory(s);
}

std::string estimator_label(const estimator_spec& s) {
  if (s.has("label")) return s.get_string("label");
  return estimator_registry().at(s.name()).display;
}

std::string fit_key(const estimator_spec& s) {
  // The Bayesian estimators subclass their partner's fit unchanged.
  static const std::pair<std::string_view, std::string_view> shared[] = {
      {"bayes-indep", "independence"}, {"bayes-corr", "corr-complete"}};
  std::string_view name = estimator_registry().resolve(s).name;
  for (const auto& [member, fit] : shared) {
    if (name == member) name = fit;
  }
  spec key = spec::parse(name);
  for (const spec_option& o : s.options()) {
    if (o.key != "label") key = key.with_option(o.key, o.value);
  }
  return key.to_string();
}

}  // namespace ntom

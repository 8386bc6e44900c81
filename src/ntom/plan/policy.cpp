#include "ntom/plan/policy.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ntom/plan/info_gain.hpp"
#include "ntom/util/rng.hpp"

namespace ntom {

double probe_policy_frac(const spec& s, double fallback) {
  const double frac = s.get_double("frac", fallback);
  if (!(frac > 0.0) || frac > 1.0) {
    throw spec_error("probe policy '" + s.name() +
                     "': frac must be in (0, 1], got " + std::to_string(frac));
  }
  return frac;
}

std::size_t probe_budget_paths(double frac, std::size_t num_paths) {
  if (num_paths == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::llround(frac * static_cast<double>(num_paths)));
  return std::min(std::max<std::size_t>(k, 1), num_paths);
}

namespace {

/// Baseline: an independent uniform sample of k paths per chunk. The
/// per-chunk draw is keyed on (seed, first_interval), so every pass —
/// fit, scoring replays — regenerates the identical masks.
class uniform_policy final : public probe_policy {
 public:
  uniform_policy(double frac, std::uint64_t seed) : frac_(frac), seed_(seed) {}

  void begin(const topology& t, std::size_t intervals) override {
    (void)intervals;
    num_paths_ = t.num_paths();
    budget_ = probe_budget_paths(frac_, num_paths_);
  }

  [[nodiscard]] bitvec select(std::size_t first_interval,
                              std::size_t count) override {
    (void)count;
    if (budget_ >= num_paths_) {
      bitvec all(num_paths_);
      all.flip();
      return all;
    }
    std::uint64_t state =
        seed_ + (first_interval + 1) * 0x9e3779b97f4a7c15ULL;
    rng rand(splitmix64(state));
    return bitvec::from_indices(
        num_paths_, rand.sample_without_replacement(num_paths_, budget_));
  }

 private:
  double frac_;
  std::uint64_t seed_;
  std::size_t num_paths_ = 0;
  std::size_t budget_ = 0;
};

/// Deterministic coverage rotation: chunk c observes the contiguous
/// (wrap-around) window of k paths starting at (c * k) mod paths, so
/// ceil(paths / k) consecutive chunks cover every path.
class round_robin_policy final : public probe_policy {
 public:
  explicit round_robin_policy(double frac) : frac_(frac) {}

  void begin(const topology& t, std::size_t intervals) override {
    (void)intervals;
    num_paths_ = t.num_paths();
    budget_ = probe_budget_paths(frac_, num_paths_);
    chunk_index_ = 0;
  }

  [[nodiscard]] bitvec select(std::size_t first_interval,
                              std::size_t count) override {
    (void)first_interval;
    (void)count;
    bitvec out(num_paths_);
    if (budget_ >= num_paths_) {
      out.flip();
      return out;
    }
    const std::size_t start = (chunk_index_ * budget_) % num_paths_;
    ++chunk_index_;
    for (std::size_t i = 0; i < budget_; ++i) {
      out.set((start + i) % num_paths_);
    }
    return out;
  }

 private:
  double frac_;
  std::size_t num_paths_ = 0;
  std::size_t budget_ = 0;
  std::size_t chunk_index_ = 0;
};

void register_builtins(registry<probe_policy_plugin>& reg) {
  reg.add({"uniform",
           "Uniform",
           "independent uniform sample of the path budget each chunk",
           {},
           {{"frac", "probe budget as a fraction of paths (default 0.25)"},
            {"seed", "RNG seed of the per-chunk draws (default 1)"}},
           {[](const spec& s) -> std::unique_ptr<probe_policy> {
             return std::make_unique<uniform_policy>(
                 probe_policy_frac(s, 0.25),
                 static_cast<std::uint64_t>(s.get_int("seed", 1)));
           }}});
  reg.add({"round_robin",
           "Round-robin",
           "contiguous budget-sized window rotating over the paths",
           {"rr"},
           {{"frac", "probe budget as a fraction of paths (default 0.25)"}},
           {[](const spec& s) -> std::unique_ptr<probe_policy> {
             return std::make_unique<round_robin_policy>(
                 probe_policy_frac(s, 0.25));
           }}});
  reg.add({"info_gain",
           "Info-gain",
           "UCB planner probing the paths most likely to show congestion",
           {"bandit"},
           {{"frac", "probe budget as a fraction of paths (default 0.25)"},
            {"horizon",
             "chunks between forgetting steps, 0 = never (default 16)"},
            {"explore", "UCB exploration weight (default 0.7)"}},
           {[](const spec& s) -> std::unique_ptr<probe_policy> {
             info_gain_params p;
             p.frac = probe_policy_frac(s, p.frac);
             p.horizon = s.get_size("horizon", p.horizon);
             p.explore = s.get_double("explore", p.explore);
             if (p.explore < 0.0) {
               throw spec_error(
                   "probe policy 'info_gain': explore must be >= 0");
             }
             return std::make_unique<info_gain_policy>(p);
           }}});
}

}  // namespace

registry<probe_policy_plugin>& probe_policy_registry() {
  static registry<probe_policy_plugin>* reg = [] {
    auto* r = new registry<probe_policy_plugin>("probe policy");
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

std::unique_ptr<probe_policy> make_probe_policy(const probe_policy_spec& s) {
  return probe_policy_registry().resolve(s).factory.make(s);
}

void probe_policy_sink::begin(const topology& t, std::size_t intervals) {
  num_paths_ = t.num_paths();
  policy_->begin(t, intervals);
  downstream_->begin(t, intervals);
}

void probe_policy_sink::consume(const measurement_chunk& chunk) {
  if (!chunk.fully_observed()) {
    throw std::logic_error(
        "probe_policy_sink: the incoming chunk already carries an "
        "observed-path mask — policies do not stack");
  }
  bitvec selected = policy_->select(chunk.first_interval, chunk.count);
  if (selected.size() != num_paths_ || selected.count() == 0) {
    throw std::logic_error(
        "probe_policy_sink: the policy must select >= 1 of the topology's "
        "paths");
  }
  if (selected.count() >= num_paths_) {
    // Full budget: the mask would be a no-op, so the chunk passes
    // through untouched (this is what makes frac=1.0 bit-identical to
    // the unmasked pipeline at any chunk size).
    downstream_->consume(chunk);
    policy_->observe(chunk);
    return;
  }
  masked_.first_interval = chunk.first_interval;
  masked_.count = chunk.count;
  masked_.congested_paths = chunk.congested_paths;
  for (std::size_t i = 0; i < masked_.count; ++i) {
    std::uint64_t* row = masked_.congested_paths.row_words(i);
    for (std::size_t w = 0; w < masked_.congested_paths.word_stride(); ++w) {
      row[w] &= selected.word(w);
    }
  }
  // The truth plane stays full: budget curves must score detection
  // against everything that really happened, not just what was probed.
  masked_.true_links = chunk.true_links;
  masked_.observed_paths = std::move(selected);
  masked_.invalidate_derived();
  downstream_->consume(masked_);
  policy_->observe(masked_);
}

}  // namespace ntom

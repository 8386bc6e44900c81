#include "ntom/sim/truth.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "ntom/corr/joint.hpp"

namespace ntom {

ground_truth::ground_truth(const topology& t, const congestion_model& model,
                           std::size_t intervals)
    : topo_(t), model_(model), intervals_(intervals) {
  assert(!model.phase_q.empty());
}

double ground_truth::phase_weight(std::size_t phase) const {
  const std::size_t phases = model_.num_phases();
  if (phases <= 1) return 1.0;
  if (intervals_ == 0) return phase == 0 ? 1.0 : 0.0;
  const std::size_t len = model_.phase_length;
  // Phase k covers intervals [k*len, (k+1)*len), except the last phase,
  // which absorbs the remainder (phase_of_interval clamps).
  std::size_t begin = phase * len;
  if (begin >= intervals_) return 0.0;
  std::size_t end = (phase + 1 == phases) ? intervals_
                                          : std::min(intervals_, begin + len);
  return static_cast<double>(end - begin) / static_cast<double>(intervals_);
}

double ground_truth::good_probability_in_phase(const bitvec& links,
                                               std::size_t phase) const {
  const auto& q = model_.phase_q[phase];
  // Union of underlying router links (a router link shared by two AS
  // links must be counted once).
  std::unordered_set<router_link_id> routers;
  links.for_each([&](std::size_t e) {
    for (const router_link_id r : topo_.link(static_cast<link_id>(e)).router_links) {
      routers.insert(r);
    }
  });
  double good = 1.0;
  for (const router_link_id r : routers) good *= 1.0 - q[r];

  // Every driver family is independent, so each contributes one factor:
  // a set is good iff no driver able to congest it fired.
  for (std::size_t g = 0; g < model_.groups.size(); ++g) {
    for (const router_link_id r : model_.groups[g].members) {
      if (routers.count(r) != 0) {
        good *= 1.0 - model_.phase_group_q[phase][g];
        break;
      }
    }
  }
  // Chains are phase-independent; their single-interval marginal is the
  // stationary mixture (the initial state is drawn stationary at build
  // time, so every interval sits in the stationary regime).
  for (const gilbert_chain& c : model_.chains) {
    if (routers.count(c.driver) != 0) good *= 1.0 - c.marginal_q();
  }
  return good;
}

double ground_truth::good_probability(const bitvec& links) const {
  double total = 0.0;
  for (std::size_t k = 0; k < model_.num_phases(); ++k) {
    total += phase_weight(k) * good_probability_in_phase(links, k);
  }
  return total;
}

double ground_truth::link_congestion_probability(link_id e) const {
  bitvec one(topo_.num_links());
  one.set(e);
  return 1.0 - good_probability(one);
}

double ground_truth::set_congestion_probability(const bitvec& links) const {
  if (links.count() > max_joint_members) {
    throw std::invalid_argument(
        "ground_truth::set_congestion_probability: " +
        std::to_string(links.count()) + " links exceed max_joint_members (" +
        std::to_string(max_joint_members) + ")");
  }
  double total = 0.0;
  for (std::size_t k = 0; k < model_.num_phases(); ++k) {
    const auto per_phase = ntom::set_congestion_probability(
        links, [&](const bitvec& b) -> std::optional<double> {
          return good_probability_in_phase(b, k);
        });
    total += phase_weight(k) * per_phase.value();
  }
  return total;
}

}  // namespace ntom

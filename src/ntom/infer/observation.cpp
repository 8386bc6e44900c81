#include "ntom/infer/observation.hpp"

#include <utility>

namespace ntom {

namespace {

/// The formula both overloads share, once `good_paths` is known: a
/// link on a congested path is a candidate exactly when no good path
/// runs through it, so the candidates need no link set of a good path.
interval_observation observe(const topology& t, const bitvec& congested_paths,
                             bitvec good_paths) {
  interval_observation obs;
  obs.congested_paths = congested_paths;
  obs.good_paths = std::move(good_paths);
  obs.candidate_links = bitvec(t.num_links());
  t.links_of_paths(congested_paths).for_each([&](std::size_t e) {
    if (!t.paths_through(static_cast<link_id>(e)).intersects(obs.good_paths)) {
      obs.candidate_links.set(e);
    }
  });
  return obs;
}

}  // namespace

interval_observation make_observation(const topology& t,
                                      const bitvec& congested_paths) {
  bitvec good_paths = congested_paths;
  good_paths.flip();
  interval_observation obs = observe(t, congested_paths, std::move(good_paths));
  // Every path is observed, so a covered link is either on a good path
  // or a candidate.
  obs.good_links = t.covered_links();
  obs.good_links.subtract(obs.candidate_links);
  return obs;
}

interval_observation make_observation(const topology& t,
                                      const bitvec& congested_paths,
                                      const bitvec& observed_paths) {
  if (observed_paths.empty()) return make_observation(t, congested_paths);
  bitvec good_paths = observed_paths;
  good_paths.subtract(congested_paths);
  interval_observation obs = observe(t, congested_paths, std::move(good_paths));
  // Links only on unobserved paths are neither good nor candidates.
  obs.good_links = t.links_of_paths(obs.good_paths);
  return obs;
}

}  // namespace ntom

#include "ntom/infer/bayes_correlation.hpp"

namespace ntom {

bayes_correlation_inferencer::bayes_correlation_inferencer(
    const topology& t, const experiment_data& data,
    const correlation_complete_params& params)
    : topo_(&t),
      step1_(compute_correlation_complete(t, data, params)),
      marginals_(step1_.estimates.to_link_estimates()) {}

bitvec bayes_correlation_inferencer::infer(
    const bitvec& congested_paths) const {
  const interval_observation obs = make_observation(*topo_, congested_paths);
  return map_correlated(*topo_, obs, step1_.estimates, marginals_);
}

bitvec bayes_correlation_inferencer::infer(
    const bitvec& congested_paths, const bitvec& observed_paths) const {
  const interval_observation obs =
      make_observation(*topo_, congested_paths, observed_paths);
  return map_correlated(*topo_, obs, step1_.estimates, marginals_);
}

}  // namespace ntom

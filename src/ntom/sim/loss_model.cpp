#include "ntom/sim/loss_model.hpp"

#include <cmath>

namespace ntom {

double sample_link_loss(rng& rand, bool congested, double f) {
  return congested ? rand.uniform(f, 1.0) : rand.uniform(0.0, f);
}

double path_congestion_threshold(std::size_t d, double f) {
  return 1.0 - std::pow(1.0 - f, static_cast<double>(d));
}

}  // namespace ntom

#include "ntom/service/service.hpp"

#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace ntom {

std::vector<std::int64_t> stable_link_map(const topology& from,
                                          const topology& to) {
  using signature = std::tuple<as_id, bool, std::vector<router_link_id>>;
  std::map<signature, std::deque<link_id>> pool;
  for (link_id e = 0; e < from.num_links(); ++e) {
    const link_info& info = from.link(e);
    pool[{info.as_number, info.edge, info.router_links}].push_back(e);
  }
  std::vector<std::int64_t> out(to.num_links(), npos_link);
  for (link_id e = 0; e < to.num_links(); ++e) {
    const link_info& info = to.link(e);
    const auto it = pool.find({info.as_number, info.edge, info.router_links});
    if (it == pool.end() || it->second.empty()) continue;
    out[e] = static_cast<std::int64_t>(it->second.front());
    it->second.pop_front();
  }
  return out;
}

tomography_service::tomography_service(service_config config)
    : config_(std::move(config)), est_(make_estimator(config_.estimator)) {
  const estimator_caps caps = est_->caps();
  if (!caps.windowed) {
    throw std::invalid_argument(
        "tomography_service: estimator '" + config_.estimator.to_string() +
        "' does not support the sliding-window protocol");
  }
  if (!caps.link_estimation) {
    throw std::invalid_argument(
        "tomography_service: estimator '" + config_.estimator.to_string() +
        "' cannot produce per-link estimates");
  }
  if (config_.window_chunks == 0) {
    throw std::invalid_argument(
        "tomography_service: window_chunks must be positive");
  }
  if (config_.refit_every == 0) config_.refit_every = 1;
}

void tomography_service::begin_epoch(std::shared_ptr<const topology> topo) {
  if (topo == nullptr || !topo->finalized()) {
    throw std::invalid_argument(
        "tomography_service: begin_epoch needs a finalized topology");
  }

  // Carry the last published posterior over stable links before the old
  // topology goes away.
  carried_.assign(topo->num_links(), snapshot_link{});
  const std::shared_ptr<const service_snapshot> last = snapshot();
  if (last != nullptr) {
    const std::vector<std::int64_t> map =
        stable_link_map(last->topo(), *topo);
    for (link_id e = 0; e < topo->num_links(); ++e) {
      if (map[e] == npos_link) continue;
      const snapshot_link& old =
          last->link_estimate(static_cast<link_id>(map[e]));
      if (!old.estimated) continue;
      carried_[e] = old;
      carried_[e].carried = true;
    }
  }

  topo_ = std::move(topo);
  window_.clear();
  since_refit_ = 0;
  est_->begin_window(*topo_);
  ++epoch_;
  stats_.epochs.fetch_add(1, std::memory_order_relaxed);

  // Publish the carried-only view immediately: readers see the epoch
  // swap (and the surviving posterior) before any new evidence lands.
  publish(carried_);
}

void tomography_service::ingest(const measurement_chunk& chunk) {
  if (topo_ == nullptr) {
    throw std::logic_error("tomography_service: ingest before begin_epoch");
  }
  window_.push_back(chunk);
  est_->consume(chunk);
  stats_.chunks_ingested.fetch_add(1, std::memory_order_relaxed);

  if (window_.size() > config_.window_chunks) {
    const measurement_chunk& oldest = window_.front();
    est_->retire(oldest);
    window_.pop_front();
    stats_.chunks_retired.fetch_add(1, std::memory_order_relaxed);
  }

  if (++since_refit_ >= config_.refit_every) refit_and_publish();
}

void tomography_service::flush() {
  if (window_.empty()) return;      // carried-only snapshot stands.
  if (since_refit_ == 0) return;    // last ingest already published.
  refit_and_publish();
}

void tomography_service::refit_and_publish() {
  since_refit_ = 0;
  est_->refit();
  stats_.refits.fetch_add(1, std::memory_order_relaxed);

  const link_estimates fitted = est_->links();
  std::vector<snapshot_link> links(topo_->num_links());
  for (link_id e = 0; e < topo_->num_links(); ++e) {
    if (fitted.estimated.test(e)) {
      links[e].congestion = fitted.congestion[e];
      links[e].estimated = true;
    } else if (carried_[e].estimated) {
      // The window does not determine this link; the carried posterior
      // from the previous epoch is still the best available answer.
      links[e] = carried_[e];
    }
  }
  publish(std::move(links));
}

void tomography_service::publish(std::vector<snapshot_link> links) {
  std::size_t intervals = 0;
  for (const measurement_chunk& c : window_) intervals += c.count;
  const std::size_t first =
      window_.empty() ? 0 : window_.front().first_interval;
  const std::size_t end =
      window_.empty() ? 0
                      : window_.back().first_interval + window_.back().count;
  auto snap = std::make_shared<const service_snapshot>(
      epoch_, ++version_, topo_, std::move(links), window_.size(),
      config_.window_chunks, intervals, first, end);
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  published_ = std::move(snap);
}

void service_ingest_sink::begin(const topology& t, std::size_t intervals) {
  (void)intervals;
  if (service_->topo_ptr().get() != &t) {
    throw std::logic_error(
        "service_ingest_sink: stream topology is not the service's current "
        "epoch topology — call begin_epoch with the stream's topology first");
  }
}

}  // namespace ntom

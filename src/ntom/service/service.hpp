// The online service mode: tomography as a long-running process over an
// unbounded measurement stream, instead of a one-shot batch fit.
//
// tomography_service owns
//
//   * a bounded sliding window of measurement chunks (the last W
//     chunks): each ingested chunk extends the windowed estimator's
//     counters, and once the window is full the oldest chunk is retired
//     — subtracted exactly — so memory stays O(W x chunk + #sets)
//     forever. A refit over the window is bit-identical to a fresh
//     one-shot fit over the same chunks (the chunk protocol plus
//     retire/refit, estimator_caps::windowed).
//
//   * epochs: begin_epoch swaps the topology mid-stream (a routing
//     change). The window resets — old evidence indexes dead paths —
//     but the previous posterior is carried over for every link whose
//     identity is stable across the swap (stable_link_map matches
//     link_info signatures), flagged `carried` so readers can tell a
//     carried prior from a fitted estimate.
//
//   * an RCU-style published snapshot: every refit builds an immutable
//     service_snapshot and swaps it into the publish slot under a short
//     mutex (the critical section is one shared_ptr assignment — the
//     snapshot itself is built outside it). Readers copy the refcounted
//     pointer under the same lock and then query the immutable object
//     with no further synchronization; publication never invalidates a
//     held snapshot.
//
// Threading contract: all mutating calls (begin_epoch / ingest / flush)
// come from ONE ingest thread; snapshot() and stats() are safe from any
// thread at any time.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "ntom/api/estimator.hpp"
#include "ntom/service/snapshot.hpp"
#include "ntom/sim/measurement.hpp"

namespace ntom {

/// Service knobs.
struct service_config {
  /// Windowed-capable estimator with link estimation (caps().windowed
  /// && caps().link_estimation); the constructor rejects others.
  estimator_spec estimator = "independence";

  /// W: chunks the sliding window holds before the oldest is retired.
  std::size_t window_chunks = 16;

  /// Refit + publish every N ingested chunks (1 = every chunk). flush()
  /// forces one regardless.
  std::size_t refit_every = 1;
};

/// Monotonic counters, readable from any thread while ingest runs.
struct service_stats {
  std::atomic<std::uint64_t> chunks_ingested{0};
  std::atomic<std::uint64_t> chunks_retired{0};
  std::atomic<std::uint64_t> refits{0};
  std::atomic<std::uint64_t> epochs{0};
};

/// Stable link identity across a topology swap: new link id -> matching
/// old link id, or npos_link when no old link shares the signature. Two
/// links match when their link_info agrees (as_number, router_links,
/// edge); duplicate signatures pair up in id order, each old link used
/// at most once.
inline constexpr std::int64_t npos_link = -1;
[[nodiscard]] std::vector<std::int64_t> stable_link_map(const topology& from,
                                                        const topology& to);

class tomography_service {
 public:
  /// Resolves the estimator spec. Throws spec_error on unknown names,
  /// std::invalid_argument when the estimator lacks the windowed or
  /// link-estimation capability or window_chunks == 0.
  explicit tomography_service(service_config config);

  /// Starts a new epoch on `topo` (must be finalized; kept alive via
  /// the shared_ptr). Resets the window, carries the last published
  /// posterior over stable links, bumps the epoch, and publishes the
  /// carried-only snapshot immediately. Must be called once before the
  /// first ingest().
  void begin_epoch(std::shared_ptr<const topology> topo);

  /// Ingests one chunk (chunks arrive in interval order within an
  /// epoch). Retires the oldest chunk when the window is over capacity,
  /// and refits + publishes per config.refit_every.
  void ingest(const measurement_chunk& chunk);

  /// Forces a refit + publish of the current window (no-op on an empty
  /// window: the carried-only snapshot from begin_epoch stands).
  void flush();

  /// The latest published snapshot (one refcounted pointer copy under a
  /// short lock; never null after the first begin_epoch). Readers keep
  /// the shared_ptr for as long as they query it — publication never
  /// invalidates a held snapshot.
  [[nodiscard]] std::shared_ptr<const service_snapshot> snapshot() const {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    return published_;
  }

  [[nodiscard]] const service_stats& stats() const noexcept { return stats_; }

  /// The current epoch's topology (ingest thread only).
  [[nodiscard]] const std::shared_ptr<const topology>& topo_ptr()
      const noexcept {
    return topo_;
  }

 private:
  void refit_and_publish();
  void publish(std::vector<snapshot_link> links);

  service_config config_;
  std::unique_ptr<estimator> est_;
  std::shared_ptr<const topology> topo_;
  std::deque<measurement_chunk> window_;
  /// Posterior carried from the previous epoch, indexed by current link
  /// id; overlaid onto every publish for links the fit leaves
  /// undetermined.
  std::vector<snapshot_link> carried_;
  std::uint64_t epoch_ = 0;
  std::uint64_t version_ = 0;
  std::size_t since_refit_ = 0;
  mutable std::mutex publish_mutex_;
  std::shared_ptr<const service_snapshot> published_;
  service_stats stats_;
};

/// measurement_sink adapter: drives a service from any stream pass
/// (stream_experiment, a measurement_source replay, a fanout). The
/// service must already be in an epoch whose topology is the stream's
/// (begin() verifies); end() flushes.
class service_ingest_sink final : public measurement_sink {
 public:
  explicit service_ingest_sink(tomography_service& service)
      : service_(&service) {}

  void begin(const topology& t, std::size_t intervals) override;
  void consume(const measurement_chunk& chunk) override {
    service_->ingest(chunk);
  }
  void end() override { service_->flush(); }

 private:
  tomography_service* service_;
};

}  // namespace ntom

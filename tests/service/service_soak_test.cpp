// Long-horizon nonstationary soak: the service ingests a drifting
// hotspot workload across several epochs while reader threads hammer
// the snapshot API the whole time. Every snapshot a reader observes
// must verify (no torn window), versions must be monotone per reader,
// and memory must stay bounded by the window. This test is the TSan
// target for the service's ingest/read concurrency contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "ntom/exp/runner.hpp"
#include "ntom/service/service.hpp"

namespace ntom {
namespace {

run_config drift_config(std::uint64_t epoch_seed) {
  run_config config;
  config.topo = "brite,n=12,hosts=36,paths=72";
  config.topo_seed = 3;
  config.scenario = "hotspot_drift";
  config.scenario_opts.seed = 31 + epoch_seed;
  config.scenario_opts.phase_length = 40;  // the hotspot keeps moving.
  config.sim.intervals = 1600;
  config.sim.packets_per_path = 40;
  config.sim.seed = 57 + epoch_seed;
  config.stream.enabled = true;
  config.stream.chunk_intervals = 64;
  return config;
}

TEST(ServiceSoakTest, ConcurrentQueriesDuringNonstationaryIngest) {
  service_config cfg;
  cfg.estimator = "independence";
  cfg.window_chunks = 6;
  cfg.refit_every = 1;
  tomography_service service(cfg);

  constexpr std::size_t kReaders = 3;
  constexpr std::size_t kEpochs = 3;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> regressions{0};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      std::uint64_t local = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const service_snapshot> snap =
            service.snapshot();
        if (snap == nullptr) continue;
        if (!snap->verify()) torn.fetch_add(1, std::memory_order_relaxed);
        if (snap->version() < last_version) {
          regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_version = snap->version();
        // Exercise the whole query surface off the immutable object.
        (void)snap->congested_links(0.5);
        (void)snap->confidence();
        (void)snap->window_intervals();
        for (link_id e = 0; e < snap->topo().num_links(); ++e) {
          (void)snap->link_estimate(e);
        }
        ++local;
      }
      queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    const run_config config = drift_config(epoch);
    const run_artifacts run = prepare_topology(config);
    service.begin_epoch(run.topo_ptr);
    service_ingest_sink sink(service);
    stream_experiment(run, config, sink);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_GT(queries.load(), 0u);

  const service_stats& stats = service.stats();
  const std::uint64_t per_epoch = 1600 / 64;
  EXPECT_EQ(stats.epochs.load(), kEpochs);
  EXPECT_EQ(stats.chunks_ingested.load(), kEpochs * per_epoch);
  EXPECT_EQ(stats.chunks_retired.load(),
            kEpochs * (per_epoch - cfg.window_chunks));
  EXPECT_EQ(stats.refits.load(), kEpochs * per_epoch);

  const std::shared_ptr<const service_snapshot> last = service.snapshot();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->epoch(), kEpochs);
  EXPECT_TRUE(last->verify());
  EXPECT_EQ(last->window_chunks(), cfg.window_chunks);
  EXPECT_EQ(last->window_intervals(), cfg.window_chunks * 64);
}

}  // namespace
}  // namespace ntom

#include "ntom/sim/packet_sim.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>

namespace ntom {

void materialize_sink::begin(const topology& t, std::size_t intervals) {
  out_->intervals = intervals;
  out_->path_good = bit_matrix(t.num_paths(), intervals);
  out_->true_links = bit_matrix(intervals, t.num_links());
  out_->always_good_paths = bitvec(t.num_paths());
}

void materialize_sink::consume(const measurement_chunk& chunk) {
  if (!chunk.fully_observed()) {
    // The columnar store has no observed-path plane: silently dropping
    // the mask would let unprobed paths masquerade as "good".
    throw std::logic_error(
        "materialize_sink cannot store probe-budget masked chunks; "
        "run policies in streamed mode");
  }
  out_->true_links.copy_rows_from(chunk.true_links, chunk.first_interval);
  // Chunk -> columnar store: transpose once, splice each path row into
  // the interval columns this chunk covers (word-shifting, no per-bit
  // loop).
  const bit_matrix& good = chunk.path_good_major();
  for (std::size_t p = 0; p < good.rows(); ++p) {
    out_->path_good.write_row_bits(p, chunk.first_interval,
                                   good.row_words(p), chunk.count);
  }
}

void materialize_sink::end() {
  out_->always_good_paths = out_->path_good.full_rows();
}

void run_experiment_streaming(const topology& t, const congestion_model& model,
                              const sim_params& params, measurement_sink& sink,
                              std::size_t chunk_intervals) {
  assert(t.finalized());
  if (chunk_intervals == 0) chunk_intervals = default_chunk_intervals;
  rng rand(params.seed);
  link_state_sampler sampler(t, model, rand.next_u64());
  rng loss_rand = rand.split();
  rng packet_rand = rand.split();

  sink.begin(t, params.intervals);

  measurement_chunk chunk;

  // Probing state, set up once per stream: the batched sampler (its
  // jump table) for packets_per_path, the covered links in ascending
  // order (the loss draw order), a flat path -> link hop table, and
  // per path the delivered-count cutoff below which it is congested.
  std::vector<link_id> covered;
  std::vector<std::size_t> hop_begin;
  std::vector<link_id> hops;
  std::vector<std::size_t> cut;
  std::optional<binomial_batch> probes;
  std::vector<double> keep;
  std::vector<double> survive;
  std::vector<std::size_t> delivered;
  if (!params.oracle_monitor) {
    t.covered_links().for_each(
        [&](std::size_t e) { covered.push_back(static_cast<link_id>(e)); });
    hop_begin.reserve(t.num_paths() + 1);
    hop_begin.push_back(0);
    for (path_id p = 0; p < t.num_paths(); ++p) {
      const std::vector<link_id>& links = t.get_path(p).links();
      hops.insert(hops.end(), links.begin(), links.end());
      hop_begin.push_back(hops.size());
    }
    // A path is congested when its observed loss 1 - d/packets exceeds
    // margin * (1-(1-f)^len). That test is monotone in the delivered
    // count d, so it holds exactly for d < cut[p]; evaluating it at
    // every d keeps the decision bit for bit.
    const std::size_t packets = params.packets_per_path;
    cut.assign(t.num_paths(), 0);
    for (path_id p = 0; p < t.num_paths(); ++p) {
      const double limit =
          params.threshold_margin *
          path_congestion_threshold(t.get_path(p).length(),
                                    params.loss_threshold);
      for (std::size_t d = 0; d <= packets; ++d) {
        const double observed_loss =
            1.0 - static_cast<double>(d) / static_cast<double>(packets);
        if (observed_loss > limit) {
          assert(d == cut[p]);
          ++cut[p];
        }
      }
    }
    probes.emplace(packets, t.num_paths());
    keep.assign(t.num_links(), 1.0);
    survive.resize(t.num_paths());
    delivered.resize(t.num_paths());
  }

  for (std::size_t begin = 0; begin < params.intervals;
       begin += chunk_intervals) {
    const std::size_t count =
        std::min(chunk_intervals, params.intervals - begin);
    chunk.first_interval = begin;
    chunk.count = count;
    chunk.congested_paths = bit_matrix(count, t.num_paths());
    chunk.true_links = bit_matrix(count, t.num_links());
    chunk.invalidate_derived();

    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t interval = begin + i;
      const bitvec congested = sampler.sample_interval(interval);
      chunk.true_links.set_row(i, congested);

      if (params.oracle_monitor) {
        // Separability made exact: congested iff some link is.
        for (path_id p = 0; p < t.num_paths(); ++p) {
          if (t.get_path(p).link_set().intersects(congested)) {
            chunk.congested_paths.set(i, p);
          }
        }
        continue;
      }

      // Loss rates are drawn only for links on monitored paths; others
      // never carry probes. Each stores its survival 1 - loss once.
      for (const link_id e : covered) {
        keep[e] = 1.0 - sample_link_loss(loss_rand, congested.test(e),
                                         params.loss_threshold);
      }
      for (path_id p = 0; p < t.num_paths(); ++p) {
        double s = 1.0;
        for (std::size_t h = hop_begin[p]; h < hop_begin[p + 1]; ++h) {
          s *= keep[hops[h]];
        }
        survive[p] = s;
      }
      probes->draw(packet_rand, survive.data(), t.num_paths(),
                   delivered.data());
      for (path_id p = 0; p < t.num_paths(); ++p) {
        if (delivered[p] < cut[p]) chunk.congested_paths.set(i, p);
      }
    }
    sink.consume(chunk);
  }
  sink.end();
}

void replay_experiment(const topology& t, const experiment_data& data,
                       measurement_sink& sink, std::size_t chunk_intervals) {
  if (chunk_intervals == 0) chunk_intervals = default_chunk_intervals;
  sink.begin(t, data.intervals);
  measurement_chunk chunk;
  for (std::size_t begin = 0; begin < data.intervals;
       begin += chunk_intervals) {
    const std::size_t end = std::min(begin + chunk_intervals, data.intervals);
    chunk.first_interval = begin;
    chunk.count = end - begin;
    chunk.congested_paths = data.path_good.column_slice(begin, end);
    chunk.congested_paths.transpose();
    chunk.congested_paths.flip_all();
    chunk.true_links = data.true_links.row_slice(begin, end);
    chunk.invalidate_derived();
    sink.consume(chunk);
  }
  sink.end();
}

experiment_data run_experiment(const topology& t, const congestion_model& model,
                               const sim_params& params) {
  experiment_data data;
  materialize_sink sink(data);
  run_experiment_streaming(t, model, params, sink);
  return data;
}

}  // namespace ntom

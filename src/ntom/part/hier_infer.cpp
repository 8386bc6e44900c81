#include "ntom/part/hier_infer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>


namespace ntom {

namespace {

/// out[i] = global.test(ids[i]) — the column gather of a path/link set.
template <typename Id>
bitvec gather_bits(const bitvec& global, const std::vector<Id>& ids) {
  bitvec out(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (global.test(ids[i])) out.set(i);
  }
  return out;
}

/// The cell's rows of a path-major matrix (same column universe): one
/// word-level row copy per cell path, no per-bit loop.
bit_matrix gather_rows(const bit_matrix& src, const std::vector<path_id>& rows) {
  bit_matrix out(rows.size(), src.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.row_words(i), src.row_words(rows[i]),
                src.word_stride() * sizeof(std::uint64_t));
  }
  return out;
}

/// The cell's view of one streamed chunk. Built from the chunk's
/// memoized path-major good matrix: gather the cell's path rows, then
/// transpose + complement back to the interval-major congested plane —
/// exactly the columns a global column-slice would produce (unobserved
/// paths of masked chunks round-trip as good -> not congested, matching
/// the global convention).
measurement_chunk gather_cell_chunk(const partition_cell& cell,
                                    const measurement_chunk& chunk) {
  measurement_chunk local;
  local.first_interval = chunk.first_interval;
  local.count = chunk.count;
  bit_matrix good = gather_rows(chunk.path_good_major(), cell.paths);
  good.transpose();
  good.flip_all();
  local.congested_paths = std::move(good);
  local.true_links = bit_matrix(local.congested_paths.rows(),
                                cell.links.size());
  if (!chunk.fully_observed()) {
    local.observed_paths = gather_bits(chunk.observed_paths, cell.paths);
  }
  return local;
}

/// Lifts a cell-local link set into the parent universe.
void lift_links(const partition_cell& cell, const bitvec& local, bitvec& out) {
  local.for_each(
      [&](std::size_t i) { out.set(cell.links[i]); });
}

class partitioned_estimator final : public estimator {
 public:
  partitioned_estimator(estimator_spec spec,
                        std::shared_ptr<const partition_plan> plan)
      : spec_(std::move(spec)), plan_(std::move(plan)) {
    caps_ = make_estimator(spec_)->caps();
    caps_.windowed = false;  // the adapter has no retire/refit.
    cells_.reserve(plan_->cells.size());
    for (std::size_t c = 0; c < plan_->cells.size(); ++c) {
      cells_.push_back(make_estimator(spec_));
    }
  }

  [[nodiscard]] estimator_caps caps() const noexcept override { return caps_; }

  void begin_fit(const topology& t, std::size_t intervals) override {
    check_universe(t);
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      cells_[c]->begin_fit(*plan_->cells[c].topo, intervals);
    }
  }

  void consume(const measurement_chunk& chunk) override {
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      cells_[c]->consume(gather_cell_chunk(plan_->cells[c], chunk));
    }
  }

  void end_fit() override {
    for (const std::unique_ptr<estimator>& est : cells_) est->end_fit();
  }

  [[nodiscard]] bitvec infer(const bitvec& congested_paths) const override {
    return infer(congested_paths, bitvec{});
  }

  [[nodiscard]] bitvec infer(const bitvec& congested_paths,
                             const bitvec& observed_paths) const override {
    bitvec out(plan_->num_links);
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const partition_cell& cell = plan_->cells[c];
      const bitvec local_congested = gather_bits(congested_paths, cell.paths);
      const bitvec local =
          observed_paths.empty()
              ? cells_[c]->infer(local_congested)
              : cells_[c]->infer(local_congested,
                                 gather_bits(observed_paths, cell.paths));
      lift_links(cell, local, out);
    }
    return out;
  }

  [[nodiscard]] link_estimates links() const override {
    std::vector<link_estimates> per_cell;
    per_cell.reserve(cells_.size());
    for (const std::unique_ptr<estimator>& est : cells_) {
      per_cell.push_back(est->links());
    }
    return merge_cell_estimates(*plan_, per_cell);
  }

 private:
  void check_universe(const topology& t) const {
    if (t.num_links() != plan_->num_links ||
        t.num_paths() != plan_->num_paths) {
      throw std::logic_error(
          "partitioned_estimator: fitted against a different topology than "
          "the partition plan's");
    }
  }

  estimator_spec spec_;
  std::shared_ptr<const partition_plan> plan_;
  std::vector<std::unique_ptr<estimator>> cells_;
  estimator_caps caps_;
};

}  // namespace

link_estimates merge_cell_estimates(
    const partition_plan& plan, const std::vector<link_estimates>& per_cell) {
  if (per_cell.size() != plan.cells.size()) {
    throw std::logic_error(
        "merge_cell_estimates: one estimate set per cell required");
  }
  link_estimates out;
  out.congestion.assign(plan.num_links, 0.0);
  out.estimated = bitvec(plan.num_links);

  for (link_id e = 0; e < plan.num_links; ++e) {
    if (plan.link_cells[e].size() == 1) {
      // Non-frontier link: its single cell saw every non-straddling
      // path the parent routes through it, so the cell's answer —
      // value and identifiability flag alike — passes through
      // verbatim. This keeps clean splits bit-identical to the
      // monolithic fit, including the minimum-norm values estimators
      // report for links they could not determine (flag unset).
      const std::uint32_t c = plan.link_cells[e].front();
      const partition_cell& cell = plan.cells[c];
      const auto local = static_cast<link_id>(
          std::lower_bound(cell.links.begin(), cell.links.end(), e) -
          cell.links.begin());
      const link_estimates& le = per_cell[c];
      if (local < le.congestion.size()) {
        out.congestion[e] = le.congestion[local];
        if (local < le.estimated.size() && le.estimated.test(local)) {
          out.estimated.set(e);
        }
      }
      continue;
    }
    double single = 0.0;
    double weighted_sum = 0.0;
    double weight_sum = 0.0;
    double plain_sum = 0.0;
    std::size_t contributors = 0;
    for (const std::uint32_t c : plan.link_cells[e]) {
      const partition_cell& cell = plan.cells[c];
      const auto local = static_cast<link_id>(
          std::lower_bound(cell.links.begin(), cell.links.end(), e) -
          cell.links.begin());
      const link_estimates& le = per_cell[c];
      if (local >= le.estimated.size() || !le.estimated.test(local)) continue;
      const double value = le.congestion[local];
      const double weight =
          static_cast<double>(cell.topo->paths_through(local).count());
      ++contributors;
      single = value;
      weighted_sum += value * weight;
      weight_sum += weight;
      plain_sum += value;
    }
    if (contributors == 0) continue;
    out.estimated.set(e);
    if (contributors == 1) {
      // Exactly one cell determined the link: keep its value
      // bit-identically (a (v*w)/w round-trip is not exact in IEEE).
      out.congestion[e] = single;
    } else {
      out.congestion[e] = weight_sum > 0.0
                              ? weighted_sum / weight_sum
                              : plain_sum / static_cast<double>(contributors);
    }
  }
  return out;
}

std::unique_ptr<estimator> make_partitioned_estimator(
    estimator_spec spec, std::shared_ptr<const partition_plan> plan) {
  if (plan == nullptr) {
    throw std::logic_error("make_partitioned_estimator: null plan");
  }
  return std::make_unique<partitioned_estimator>(std::move(spec),
                                                 std::move(plan));
}

}  // namespace ntom

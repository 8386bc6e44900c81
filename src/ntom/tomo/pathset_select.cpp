#include "ntom/tomo/pathset_select.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "ntom/corr/correlation.hpp"
#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/qr.hpp"
#include "ntom/linalg/sparse.hpp"

namespace ntom {

namespace {

/// Masks 1..2^k-1 ordered by popcount then value, cached per k: small
/// path sets are tried first (they have larger empirical counts, hence
/// usable logs). The batch engine runs Algorithm 1 on worker threads
/// concurrently, so the lazy fill is serialized; the filled vectors are
/// immutable afterwards.
const std::vector<std::uint32_t>& masks_by_popcount(std::size_t k) {
  static std::mutex mutex;
  static std::vector<std::vector<std::uint32_t>> cache(
      max_subset_paths_limit + 1);
  std::lock_guard<std::mutex> lock(mutex);
  auto& masks = cache[k];
  if (masks.empty() && k > 0) {
    masks.resize((std::uint32_t{1} << k) - 1);
    std::iota(masks.begin(), masks.end(), 1u);
    std::stable_sort(masks.begin(), masks.end(),
                     [](std::uint32_t a, std::uint32_t b) {
                       return __builtin_popcount(a) < __builtin_popcount(b);
                     });
  }
  return masks;
}

/// Fills `order` with 0..n-1 by weight descending, ties by ascending
/// index: the order a stable sort by descending weight gives, by one
/// counting pass, since every weight is at most `max_weight`.
void order_by_weight_descending(const std::vector<std::size_t>& weights,
                                std::size_t max_weight,
                                std::vector<std::size_t>& order) {
  // start[b]: first slot of bucket b = max_weight - weight.
  std::vector<std::size_t> start(max_weight + 2, 0);
  for (const std::size_t w : weights) ++start[max_weight - w + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  order.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    order[start[max_weight - weights[i]]++] = i;
  }
}

}  // namespace

pathset_selection select_path_sets(const topology& t,
                                   const subset_catalog& catalog,
                                   const bitvec& potcong,
                                   const pathset_selection_params& params,
                                   const pathset_predicate& usable) {
  if (params.max_subset_paths > max_subset_paths_limit) {
    throw std::invalid_argument(
        "select_path_sets: max_subset_paths " +
        std::to_string(params.max_subset_paths) + " exceeds the limit " +
        std::to_string(max_subset_paths_limit));
  }
  equation_builder builder(t, catalog, potcong);
  pathset_selection out;
  const std::size_t n1 = catalog.size();

  // Candidate paths for subset i: Paths(E) \ Paths(Ē) (lines 2-3).
  // Precomputed once — the augmentation loop revisits subsets often.
  std::vector<bitvec> candidates(n1);
  std::vector<std::vector<std::size_t>> candidate_indices(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    const bitvec& e = catalog.subset(i);
    bitvec paths = t.paths_of_links(e);
    const bitvec complement =
        subset_complement(t, e, catalog.subset_as(i), potcong);
    paths.subtract(t.paths_of_links(complement));
    candidate_indices[i] = paths.to_indices();
    if (candidate_indices[i].size() > params.max_subset_paths) {
      candidate_indices[i].resize(params.max_subset_paths);
    }
    candidates[i] = std::move(paths);
  }

  // Every path set examined so far. Accepted or rejected, a path set
  // is examined once: a rejected row never adds rank to a smaller null
  // space, and an accepted one is already in the system.
  std::unordered_set<bitvec, bitvec_hash> seen;

  auto try_accept = [&](const bitvec& pset)
      -> std::optional<std::vector<std::size_t>> {
    ++out.candidates_examined;
    if (pset.empty() || !seen.insert(pset).second) return std::nullopt;
    if (usable && !usable(pset)) return std::nullopt;
    auto row = builder.row(pset);
    if (!row || row->empty()) return std::nullopt;
    return row;
  };

  // ---- Step 1: seed equations, one per correlation subset. Rows stay
  // sparse (catalog indices); the only dense image is the one the
  // initial null-space QR needs.
  sparse_matrix system(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    const bitvec& pset = candidates[i];
    auto row = try_accept(pset);
    if (!row) continue;
    out.path_sets.push_back(pset);
    out.rows.push_back(*row);
    system.append_row(*row);
  }
  out.seed_equations = out.path_sets.size();

  // ---- Step 2: initial null space.
  matrix nsp = system.rows() == 0 ? matrix::identity(n1)
                                  : null_space_basis(system.to_dense());

  // ---- Step 3: augmentation guided by the null space. cursor[i] is the
  // next mask of subset i's walk; the walk never restarts (see the
  // header for why this selects the same rows).
  std::vector<std::size_t> cursor(n1, 0);
  std::vector<std::size_t> order(n1);
  std::iota(order.begin(), order.end(), 0);
  while (nsp.cols() > 0) {
    bool found = false;

    // A row's Hamming weight counts its nonzero null-space entries, so
    // it is at most the nullity.
    const std::vector<std::size_t> weights = row_hamming_weights(nsp);
    if (params.sort_by_hamming_weight) {
      order_by_weight_descending(weights, nsp.cols(), order);
    }

    for (const std::size_t i : order) {
      if (weights[i] == 0) continue;  // subset already determined.
      const std::vector<std::size_t>& paths = candidate_indices[i];
      if (paths.empty()) continue;

      const auto& masks = masks_by_popcount(paths.size());
      const std::size_t limit =
          std::min<std::size_t>(masks.size(), params.max_candidates_per_subset);
      for (std::size_t& m = cursor[i]; m < limit && !found; ++m) {
        bitvec pset(t.num_paths());
        for (std::size_t b = 0; b < paths.size(); ++b) {
          if (masks[m] & (1u << b)) pset.set(paths[b]);
        }
        auto row = try_accept(pset);
        if (!row) continue;
        if (row_increases_rank(*row, nsp, params.rank_tolerance)) {
          out.path_sets.push_back(pset);
          out.rows.push_back(*row);
          ++out.added_equations;
          nsp = null_space_update(std::move(nsp), *row, params.rank_tolerance);
          found = true;
        }
      }
      if (found) break;
    }
    if (!found) break;  // r = 0 in the paper's termination condition.
  }

  out.null_space = std::move(nsp);
  out.identifiable = identifiable_coordinates(out.null_space);
  return out;
}

}  // namespace ntom

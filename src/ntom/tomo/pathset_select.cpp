#include "ntom/tomo/pathset_select.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "ntom/corr/correlation.hpp"
#include "ntom/linalg/nullspace.hpp"
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

/// A set of equal-width bit-sets (path sets or link unions),
/// open-addressed over their packed words. All keys share one universe,
/// so they sit end to end in one arena (entry e at words
/// [e*w, (e+1)*w)); entries are numbered 0, 1, ... in insertion order,
/// so a caller can keep per-entry data in side arrays. Each slot packs
/// the upper 32 bits of the key's finalized hash (the tag, which also
/// picks the home slot) with entry index + 1 (0 = empty): a probe
/// compares tags before words, and growth re-places slots without
/// rehashing.
class pathset_table {
 public:
  explicit pathset_table(std::size_t words)
      : words_(words), slots_(initial_slots, 0) {}

  /// The entry index of `key`, added as the next entry if it is not in
  /// the table yet; `second` is true when it was added.
  std::pair<std::size_t, bool> find_or_insert(const bitvec& key) {
    const std::uint64_t tag = finalize(key.hash()) >> 32;
    const std::uint64_t* data = key.word_data();
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = tag & mask;
    for (; slots_[s] != 0; s = (s + 1) & mask) {
      if ((slots_[s] >> 32) != tag) continue;
      const std::size_t entry = static_cast<std::uint32_t>(slots_[s]) - 1;
      if (std::equal(data, data + words_, arena_.data() + entry * words_)) {
        return {entry, false};
      }
    }
    arena_.insert(arena_.end(), data, data + words_);
    ++size_;
    slots_[s] = (tag << 32) | size_;
    if (2 * size_ > slots_.size()) grow();
    return {size_ - 1, true};
  }

 private:
  static constexpr std::size_t initial_slots = 1024;

  /// bitvec::hash is FNV-1a over whole words, so its low bits depend
  /// only on the words' low bits; the murmur3 finalizer spreads every
  /// input bit over the tag.
  static std::uint64_t finalize(std::uint64_t h) noexcept {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

  /// Doubles the slot table (load stays at most 1/2).
  void grow() {
    std::vector<std::uint64_t> old(slots_.size() * 2, 0);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint64_t slot : old) {
      if (slot == 0) continue;
      std::size_t s = (slot >> 32) & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }

  std::size_t words_;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> arena_;
  std::vector<std::uint64_t> slots_;
};

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

  // Subsets with equal candidate lists walk the same path sets in the
  // same order. list_of[i] numbers subset i's list; frontier[g] is how
  // far the furthest walk over list g has gone, so every mask below it
  // is already in `seen`.
  std::vector<std::size_t> list_of(n1);
  std::map<std::vector<std::size_t>, std::size_t> list_ids;
  for (std::size_t i = 0; i < n1; ++i) {
    list_of[i] =
        list_ids.try_emplace(candidate_indices[i], list_ids.size())
            .first->second;
  }
  std::vector<std::size_t> frontier(list_ids.size(), 0);

  // Every path set examined so far. Accepted or rejected, a path set
  // is examined once: a rejected row never adds rank to a smaller null
  // space, and an accepted one is already in the system.
  pathset_table seen(bitvec(t.num_paths()).num_words());

  // The row memo, by link union Links(P) ∩ potcong: the row of a union
  // (or its catalog miss) is a pure function of the union, and many
  // path sets share one. Side arrays per union entry: its row, and the
  // null-space epoch in which the rank test last rejected that row
  // (`never`; `no_row` for a catalog miss or an empty row). The epoch
  // moves on with every null_space_update, so a row rejected in the
  // current epoch would be rejected again by the same test against the
  // same N and is skipped.
  constexpr std::size_t never = 0;
  constexpr std::size_t no_row = static_cast<std::size_t>(-1);
  std::size_t epoch = 1;
  pathset_table unions(bitvec(t.num_links()).num_words());
  std::vector<std::vector<std::size_t>> union_row;
  std::vector<std::size_t> rejected_in;
  equation_row_scratch scratch;

  // The union entry of `pset` when it is new, has a row not rejected
  // in this epoch, and is usable; npos otherwise. usable and the rank
  // test are pure, so skipping them for a known outcome keeps every
  // result; every candidate still counts as examined.
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  auto examine = [&](const bitvec& pset) {
    ++out.candidates_examined;
    if (pset.empty() || !seen.find_or_insert(pset).second) return npos;
    builder.link_union(pset, scratch.links);
    const auto [u, added] = unions.find_or_insert(scratch.links);
    if (added) {
      const bool ok = builder.row_of_links(scratch.links, scratch) &&
                      !scratch.row.empty();
      union_row.emplace_back(ok ? scratch.row : std::vector<std::size_t>());
      rejected_in.push_back(ok ? never : no_row);
    }
    if (rejected_in[u] == no_row || rejected_in[u] == epoch) return npos;
    if (usable && !usable(pset)) return npos;
    return u;
  };

  // ---- Step 1: seed equations, one per correlation subset, as sparse
  // rows (catalog indices).
  sparse_matrix system(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    const bitvec& pset = candidates[i];
    const std::size_t u = examine(pset);
    if (u == npos) continue;
    out.path_sets.push_back(pset);
    out.rows.push_back(union_row[u]);
    system.append_row(union_row[u]);
  }
  out.seed_equations = out.path_sets.size();

  // ---- Step 2: initial null space.
  matrix nsp = null_space_basis(system);

  // ---- Step 3: augmentation guided by the null space. cursor[i] is the
  // next mask of subset i's walk; the walk never restarts (see the
  // header for why this selects the same rows).
  std::vector<std::size_t> cursor(n1, 0);
  std::vector<std::size_t> order(n1);
  std::iota(order.begin(), order.end(), 0);
  bitvec pset(t.num_paths());  // the candidate, rebuilt per mask.
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
      // Masks below the list's frontier would each be examined and
      // found in `seen`: count them and skip ahead.
      std::size_t& m = cursor[i];
      std::size_t& reached = frontier[list_of[i]];
      if (m < reached) {
        out.candidates_examined += reached - m;
        m = reached;
      }
      for (; m < limit && !found; ++m) {
        pset.clear();
        for (std::uint32_t bits = masks[m]; bits != 0; bits &= bits - 1) {
          pset.set(paths[static_cast<std::size_t>(__builtin_ctz(bits))]);
        }
        const std::size_t u = examine(pset);
        if (u == npos) continue;
        ++out.rank_tests;
        if (row_increases_rank(union_row[u], nsp)) {
          out.path_sets.push_back(pset);
          out.rows.push_back(union_row[u]);
          ++out.added_equations;
          nsp = null_space_update(std::move(nsp), union_row[u]);
          ++epoch;
          found = true;
        } else {
          rejected_in[u] = epoch;
        }
      }
      reached = m;
      if (found) break;
    }
    if (!found) break;  // r = 0 in the paper's termination condition.
  }

  out.null_space = std::move(nsp);
  out.identifiable = identifiable_coordinates(out.null_space);
  return out;
}

}  // namespace ntom

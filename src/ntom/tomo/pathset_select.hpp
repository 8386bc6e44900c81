// Algorithm 1 of the paper: Selection of Path Sets.
//
// Goal: form the minimum number of Eq. 1 equations whose matrix has the
// highest achievable rank, without enumerating all 2^|P*| path sets.
//
//   1. Seed Pˆ with one path set per correlation subset E:
//      P = Paths(E) \ Paths(Ē)   (paths that see E but avoid the rest
//      of E's correlation set).
//   2. N <- null space of Matrix(Pˆ, Ê).
//   3. Repeat: walk the correlation subsets ordered by the Hamming
//      weight of their null-space row (SortByHammingWeight — rows with
//      many non-zeros are most likely to yield ||r x N|| > 0), enumerate
//      path sets P ⊆ Paths(E) \ Paths(Ē), and append the first whose row
//      increases the system rank; shrink N with the incremental
//      NullSpaceUpdate (Algorithm 2). Stop when N runs out of columns or
//      no candidate adds rank.
//
// Step 3 visits every candidate at most once: each subset's walk resumes
// where it stopped after the previous accepted equation instead of
// restarting from the first mask. A candidate already examined was
// either accepted or rejected for good (N only shrinks, so a row that
// added no rank never adds rank later), and a subset whose null-space
// row reached 0 stays at 0, so the resumed walk selects exactly the
// rows the restarting walk did (tests/tomo/pathset_select_reference
// keeps the restarting walk as the oracle).
//
// The walk's data structures, none of which allocates per candidate:
//   - one path-set buffer, cleared and refilled from each mask's bits;
//   - `seen`, the path sets examined so far, interned by their packed
//     words (util/intern_table.hpp); each candidate is hashed once;
//   - a frontier per distinct candidate list: subsets with equal lists
//     walk the same path sets in the same order, so a walk starts at
//     the furthest mask any of them reached (the skipped masks are all
//     in `seen` and still count as examined). The lists are numbered
//     by a third interning table;
//   - the row memo, a second interning table keyed by the link union
//     Links(P) ∩ potcong (equations.hpp), with each union's row (or
//     catalog miss) and the null-space epoch in which the rank test
//     last rejected that row in side arrays indexed by the union's id.
//     The epoch moves on with every NullSpaceUpdate;
//   - one equation_row_scratch for the link union, AS groups and row,
//     and a rank test that sums r·N in a stack block.
// Per new candidate the walk builds the link union, looks it up, and
// skips the candidate when the union has no row or its row was
// rejected in the current epoch; only then does it ask `usable` and
// run the rank test. Far fewer distinct unions than candidates exist:
// on the fig3_brite network (PathsetOracleTest's benchmark case) the
// 16,291 new candidates have 268 distinct unions, and the rank test
// runs 190 times where it ran 16,145 times without the memo.
// None of this changes a result. `seen` and the frontiers only save
// work: a candidate met again keeps its first verdict without a second
// test (an accepted row is already in the system; a rejected one never
// adds rank later), and every mask a frontier skips still counts in
// candidates_examined. The row is a pure function of the union, and
// `usable` and the rank test are pure functions of the path set and of
// (row, N): a row rejected in this epoch meets the same N and would be
// rejected again. A row rejected in an earlier epoch is tested again.
//
// The `usable` predicate lets the caller reject path sets that cannot
// produce a finite measured log-probability (empirical count 0).
#pragma once

#include <functional>
#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/tomo/equations.hpp"

namespace ntom {

/// Upper bound on pathset_selection_params::max_subset_paths: step 3
/// materializes all 2^k - 1 masks of a k-path candidate list (4 MiB at
/// the bound).
inline constexpr std::size_t max_subset_paths_limit = 20;

struct pathset_selection_params {
  /// Cap on the number of paths of Paths(E)\Paths(Ē) considered when
  /// enumerating subsets (the 2^n2 term of the complexity bound is
  /// exponential; the cap bounds work per correlation subset). At most
  /// max_subset_paths_limit; select_path_sets throws
  /// std::invalid_argument above it.
  std::size_t max_subset_paths = 14;

  /// Cap on the candidate path sets step 3 examines per correlation
  /// subset over the whole selection (the first masks in popcount
  /// order; the walk resumes across accepted equations).
  std::size_t max_candidates_per_subset = 4096;

  /// Ablation knob: disable the SortByHammingWeight ordering (the
  /// selected system rank must not change; only the search order does).
  bool sort_by_hamming_weight = true;
};

/// Accepts a candidate path set; return false to skip it (e.g., its
/// empirical all-good count is zero).
using pathset_predicate = std::function<bool(const bitvec&)>;

/// Output: the ordered list Pˆ plus the final system state.
struct pathset_selection {
  std::vector<bitvec> path_sets;                ///< Pˆ, over paths.
  std::vector<std::vector<std::size_t>> rows;   ///< sparse rows, aligned.
  matrix null_space;                            ///< final N (n1 x nullity).
  bitvec identifiable;                          ///< per catalog subset.
  std::size_t seed_equations = 0;               ///< |Pˆ| after step 1.
  std::size_t added_equations = 0;              ///< appended in step 3.
  /// Candidate path sets built and tested: one per catalog subset in
  /// step 1 plus every mask step 3 visited. At most n1 + Σ_i
  /// min(2^k_i - 1, max_candidates_per_subset) for k_i candidate paths.
  std::size_t candidates_examined = 0;
  /// row_increases_rank calls in step 3: candidates that were new,
  /// usable, and whose row the rank test had not already rejected
  /// against the current null space.
  std::size_t rank_tests = 0;
};

/// Runs Algorithm 1. `usable` may be empty (accept everything). Throws
/// std::invalid_argument if params.max_subset_paths exceeds
/// max_subset_paths_limit.
[[nodiscard]] pathset_selection select_path_sets(
    const topology& t, const subset_catalog& catalog, const bitvec& potcong,
    const pathset_selection_params& params = {},
    const pathset_predicate& usable = {});

}  // namespace ntom

#include "ntom/corr/subsets.hpp"

#include <algorithm>

namespace ntom {

std::size_t subset_catalog::singleton_of(link_id e) const {
  return e < singleton_by_link_.size() ? singleton_by_link_[e] : npos;
}

subset_catalog subset_catalog::build(const topology& t, const bitvec& potcong,
                                     const subset_limits& limits) {
  subset_catalog catalog;
  catalog.singleton_by_link_.assign(t.num_links(), npos);

  // One AS's family: `seen` numbers its subsets in discovery order, and
  // family[id] is subset id.
  intern_table seen;
  std::vector<bitvec> family;
  const auto full = [&] {
    return family.size() >= limits.max_subsets_per_as;
  };
  const auto add = [&](bitvec s) {
    if (s.empty() || s.count() > limits.max_subset_size) return;
    if (seen.find_or_insert(s).second) family.push_back(std::move(s));
  };

  for (as_id a = 0; a < t.num_ases(); ++a) {
    bitvec members = t.links_in_as(a);
    members &= potcong;
    if (members.empty()) continue;
    seen.clear();
    family.clear();

    // Base family: per-path intersections with this correlation set, in
    // path order.
    for (path_id p = 0; p < t.num_paths() && !full(); ++p) {
      add(t.get_path(p).link_set() & members);
    }

    // Union closure, capped. The walk takes up the family in discovery
    // order and unites each subset with every subset found before it
    // was taken up, so where the cap stops the closure depends only on
    // path order.
    for (std::size_t next = 0; next < family.size() && !full(); ++next) {
      const std::size_t known = family.size();
      for (std::size_t i = 0; i < known && !full(); ++i) {
        add(family[next] | family[i]);
      }
    }

    // Catalog order: size, then link indices lexicographically.
    std::sort(family.begin(), family.end(),
              [](const bitvec& x, const bitvec& y) {
                const auto cx = x.count();
                const auto cy = y.count();
                if (cx != cy) return cx < cy;
                return x.to_indices() < y.to_indices();
              });

    // Subsets of different ASes are disjoint, so every subset is new
    // to index_ and its id is its catalog index.
    for (bitvec& s : family) {
      if (s.count() == 1) {
        catalog.singleton_by_link_[s.find_first()] = catalog.subsets_.size();
        catalog.singletons_.push_back(catalog.subsets_.size());
      }
      catalog.index_.find_or_insert(s);
      catalog.subset_as_.push_back(a);
      catalog.subsets_.push_back(std::move(s));
    }
  }
  return catalog;
}

}  // namespace ntom

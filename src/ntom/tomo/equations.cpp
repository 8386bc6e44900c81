#include "ntom/tomo/equations.hpp"

#include <algorithm>
#include <cmath>

namespace ntom {

equation_builder::equation_builder(const topology& t,
                                   const subset_catalog& catalog,
                                   const bitvec& potcong)
    : topo_(&t), catalog_(&catalog), potcong_(potcong) {}

void equation_builder::link_union(const bitvec& path_set,
                                  bitvec& links) const {
  const std::size_t num_links = topo_->num_links();
  if (links.size() != num_links) links = bitvec(num_links);
  links.clear();
  path_set.for_each([&](std::size_t p) {
    links |= topo_->get_path(static_cast<path_id>(p)).link_set();
  });
  links &= potcong_;
}

bool equation_builder::row(const bitvec& path_set,
                           equation_row_scratch& scratch) const {
  link_union(path_set, scratch.links);
  return row_of_links(scratch.links, scratch);
}

bool equation_builder::row_of_links(const bitvec& links,
                                    equation_row_scratch& scratch) const {
  constexpr std::size_t unseen = static_cast<std::size_t>(-1);
  const std::size_t num_links = topo_->num_links();
  if (scratch.slot_of_as.size() < topo_->num_ases()) {
    scratch.slot_of_as.assign(topo_->num_ases(), unseen);
  }

  // Group the touched links by correlation set (= AS) in one pass: the
  // per-AS slot table replaces a per-link scan over the groups seen so
  // far (O(k^2) across k touched ASes). Only the slots touched by this
  // row are reset afterwards.
  std::size_t num_groups = 0;
  links.for_each([&](std::size_t le) {
    const as_id a = topo_->link(static_cast<link_id>(le)).as_number;
    std::size_t& slot = scratch.slot_of_as[a];
    if (slot == unseen) {
      slot = num_groups;
      scratch.touched_as.push_back(a);
      if (num_groups == scratch.groups.size()) {
        scratch.groups.emplace_back(num_links);
      } else if (scratch.groups[num_groups].size() != num_links) {
        scratch.groups[num_groups] = bitvec(num_links);
      } else {
        scratch.groups[num_groups].clear();
      }
      ++num_groups;
    }
    scratch.groups[slot].set(le);
  });
  for (const as_id a : scratch.touched_as) scratch.slot_of_as[a] = unseen;
  scratch.touched_as.clear();

  std::vector<std::size_t>& sparse = scratch.row;
  sparse.clear();
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t idx = catalog_->find(scratch.groups[g]);
    if (idx == subset_catalog::npos) return false;
    sparse.push_back(idx);
  }
  std::sort(sparse.begin(), sparse.end());
  return true;
}

void log_system::add(const std::vector<std::size_t>& cols, std::size_t count,
                     std::size_t observed) {
  if (count == 0 || cols.empty()) return;
  const double weight = std::sqrt(static_cast<double>(count));
  const double logp =
      std::log(static_cast<double>(count) / static_cast<double>(observed));
  a_.append_row(cols, weight);
  b_.push_back(logp * weight);
}

}  // namespace ntom

#include "ntom/graph/topology.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ntom {

topology::topology(std::size_t router_link_count)
    : router_link_count_(router_link_count) {}

link_id topology::add_link(link_info info) {
  assert(!finalized_);
  for (const router_link_id r : info.router_links) {
    assert(r < router_link_count_);
    (void)r;
  }
  links_.push_back(std::move(info));
  return static_cast<link_id>(links_.size() - 1);
}

path_id topology::add_path(std::vector<link_id> links) {
  assert(!finalized_);
  pending_paths_.push_back(std::move(links));
  return static_cast<path_id>(pending_paths_.size() - 1);
}

void topology::finalize() {
  assert(!finalized_);
  finalized_ = true;

  paths_.reserve(pending_paths_.size());
  for (auto& seq : pending_paths_) {
    paths_.emplace_back(std::move(seq), links_.size());
  }
  pending_paths_.clear();
  pending_paths_.shrink_to_fit();

  as_count_ = 0;
  for (const auto& info : links_) {
    as_count_ = std::max<std::size_t>(as_count_, info.as_number + 1);
  }

  paths_through_link_.assign(links_.size(), bitvec(paths_.size()));
  covered_links_ = bitvec(links_.size());
  for (path_id p = 0; p < paths_.size(); ++p) {
    for (const link_id e : paths_[p].links()) {
      paths_through_link_[e].set(p);
      covered_links_.set(e);
    }
  }

  links_by_as_.assign(as_count_, bitvec(links_.size()));
  for (link_id e = 0; e < links_.size(); ++e) {
    links_by_as_[links_[e].as_number].set(e);
  }

  links_by_router_link_.assign(router_link_count_, {});
  for (link_id e = 0; e < links_.size(); ++e) {
    for (const router_link_id r : links_[e].router_links) {
      links_by_router_link_[r].push_back(e);
    }
  }
}

bitvec topology::paths_of_links(const bitvec& links) const {
  assert(finalized_);
  bitvec out(paths_.size());
  links.for_each([&](std::size_t e) { out |= paths_through_link_[e]; });
  return out;
}

bitvec topology::links_of_paths(const bitvec& paths) const {
  assert(finalized_);
  bitvec out(links_.size());
  paths.for_each([&](std::size_t p) { out |= paths_[p].link_set(); });
  return out;
}

std::string topology::describe() const {
  std::ostringstream ss;
  ss << "|E*|=" << num_links() << " |P*|=" << num_paths()
     << " ASes=" << num_ases() << " router-links=" << num_router_links();
  return ss.str();
}

}  // namespace ntom

#include "ntom/corr/correlation.hpp"

namespace ntom {

bitvec potentially_congested_links(const topology& t,
                                   const bitvec& always_good_paths) {
  bitvec out(t.num_links());
  t.covered_links().for_each([&](std::size_t e) {
    if (!t.paths_through(static_cast<link_id>(e)).intersects(always_good_paths)) {
      out.set(e);
    }
  });
  return out;
}

bitvec subset_complement(const topology& t, const bitvec& subset,
                         as_id as_number, const bitvec& potcong) {
  bitvec out = t.links_in_as(as_number);
  out &= potcong;
  out.subtract(subset);
  return out;
}

}  // namespace ntom

#include "ntom/util/intern_table.hpp"

namespace ntom {

void intern_table::clear() noexcept {
  arena_.clear();
  start_.resize(1);
  std::fill(slots_.begin(), slots_.end(), 0);
}

void intern_table::grow() {
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

}  // namespace ntom

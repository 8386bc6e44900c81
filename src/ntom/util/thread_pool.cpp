#include "ntom/util/thread_pool.hpp"

#include <algorithm>
#include <thread>

namespace ntom {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

}  // namespace ntom

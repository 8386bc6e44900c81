#include "ntom/util/thread_pool.hpp"

#include <gtest/gtest.h>

namespace ntom {
namespace {

TEST(ThreadPoolTest, ResolvesZeroToHardwareConcurrency) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
}

}  // namespace
}  // namespace ntom

#include "ntom/util/log.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace ntom {
namespace {

/// Records whether its operator<< ran.
struct probe {
  bool* formatted;
};

std::ostream& operator<<(std::ostream& os, const probe& p) {
  *p.formatted = true;
  return os << "probe";
}

/// Restores the entry log level on scope exit.
struct level_guard {
  log_level saved = get_log_level();
  ~level_guard() { set_log_level(saved); }
};

TEST(LogTest, FilteredLineNeverFormatsOperands) {
  level_guard guard;
  set_log_level(log_level::warn);
  bool formatted = false;
  int evaluated = 0;
  NTOM_DEBUG << probe{&formatted} << ++evaluated;
  NTOM_INFO << probe{&formatted} << ++evaluated;
  EXPECT_FALSE(formatted);
  EXPECT_EQ(evaluated, 0);
}

TEST(LogTest, EnabledLineFormatsOperands) {
  level_guard guard;
  set_log_level(log_level::debug);
  bool formatted = false;
  testing::internal::CaptureStderr();
  NTOM_DEBUG << probe{&formatted};
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(formatted);
  EXPECT_EQ(out, "[DEBUG] probe\n");
}

TEST(LogTest, MacroIsOneStatementUnderUnbracedIf) {
  level_guard guard;
  set_log_level(log_level::error);
  bool took_else = false;
  const bool condition = false;
  if (condition)
    NTOM_WARN << "never";
  else
    took_else = true;
  EXPECT_TRUE(took_else);
}

}  // namespace
}  // namespace ntom

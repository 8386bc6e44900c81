// Leveled logging to stderr. Kept deliberately small: experiments are
// batch jobs, so we only need severity filtering and a uniform prefix.
#pragma once

#include <sstream>
#include <string>

namespace ntom {

enum class log_level { debug = 0, info = 1, warn = 2, error = 3 };

/// Global minimum severity; messages below it are discarded.
void set_log_level(log_level level) noexcept;
[[nodiscard]] log_level get_log_level() noexcept;

/// Emits one line to stderr as "[LEVEL] message". Safe from any thread:
/// each line is one stdio call, so concurrent lines never interleave.
void log_message(log_level level, const std::string& message);

namespace detail {

/// Builds the message with an ostringstream, emits on destruction.
class log_line {
 public:
  explicit log_line(log_level level) : level_(level) {}
  log_line(const log_line&) = delete;
  log_line& operator=(const log_line&) = delete;
  ~log_line() { log_message(level_, stream_.str()); }

  template <typename T>
  log_line& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  log_level level_;
  std::ostringstream stream_;
};

}  // namespace detail

/// Streams one log line. A line below the current level is skipped
/// whole: no ostringstream is built and no operand is evaluated. The
/// if/else form keeps the macro a single statement, safe under an
/// unbraced if.
#define NTOM_LOG(level)                          \
  if ((level) < ::ntom::get_log_level()) {       \
  } else                                         \
    ::ntom::detail::log_line(level)
#define NTOM_DEBUG NTOM_LOG(::ntom::log_level::debug)
#define NTOM_INFO NTOM_LOG(::ntom::log_level::info)
#define NTOM_WARN NTOM_LOG(::ntom::log_level::warn)
#define NTOM_ERROR NTOM_LOG(::ntom::log_level::error)

}  // namespace ntom

// Tiny command-line flag parser for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`.
// Unknown flags are collected so binaries can reject typos explicitly.
// Typed accessors are strict: a value that is not entirely a number
// (or, for get_bool, a boolean spelling) throws flag_error naming the
// flag, instead of reading as 0 or false. A bare boolean flag directly
// before a positional argument takes that argument as its value, so it
// fails loudly rather than swallowing the positional.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ntom {

/// A flag value that does not parse as its accessor's type; what()
/// names the flag and the value (the CLIs print it and exit 2).
class flag_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parsed command-line flags with typed, defaulted accessors.
class flags {
 public:
  flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// The numeric accessors throw flag_error on an empty, non-numeric,
  /// trailing-garbage or out-of-range value.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// get_int for counts and sizes: a negative value throws flag_error.
  [[nodiscard]] std::size_t get_size(const std::string& name,
                                     std::size_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  /// Accepts true/false, 1/0, yes/no and on/off; anything else throws
  /// flag_error.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Names seen on the command line (for unknown-flag checks).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ntom

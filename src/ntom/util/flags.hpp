// Tiny command-line flag parser for the bench and example binaries,
// and run_cli, the one front end every binary's main() goes through.
//
// Supports `--name=value`, `--name value`, and boolean `--name`.
// run_cli rejects any flag outside the binary's list, so a typo exits 2
// instead of quietly running a different experiment. Typed accessors
// are strict: a value that is not entirely a number (or, for get_bool,
// a boolean spelling) throws flag_error naming the flag, instead of
// reading as 0 or false. A bare boolean flag directly before a
// positional argument takes that argument as its value, so it fails
// loudly rather than swallowing the positional.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
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

/// The command-line front end: parses argv, rejects any flag not in
/// `known` (flag_error naming it), and returns `body`'s exit code. Exit
/// codes: flag_error and spec_error print their message and return 2
/// (usage error); any other std::exception prints and returns 1
/// (runtime or trace error).
int run_cli(int argc, const char* const* argv,
            const std::vector<std::string>& known,
            const std::function<int(const flags&)>& body);

}  // namespace ntom

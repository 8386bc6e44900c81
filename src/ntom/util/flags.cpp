#include "ntom/util/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "ntom/util/spec.hpp"

namespace ntom {

flags::flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw flag_error("--" + name + "=" + value + ": expected " + expected);
}

/// After a strto* call that reset errno: the whole string parsed, in
/// range.
bool parsed_whole(const char* begin, const char* end) {
  return end != begin && *end == '\0' && errno != ERANGE;
}

}  // namespace

std::int64_t flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(begin, &end, 10);
  if (!parsed_whole(begin, end)) bad_value(name, it->second, "an integer");
  return value;
}

std::size_t flags::get_size(const std::string& name,
                            std::size_t fallback) const {
  if (!has(name)) return fallback;
  const std::int64_t value = get_int(name, 0);
  if (value < 0) {
    bad_value(name, get_string(name, ""), "a non-negative integer");
  }
  return static_cast<std::size_t>(value);
}

double flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (!parsed_whole(begin, end)) bad_value(name, it->second, "a number");
  return value;
}

bool flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  bad_value(name, v, "true/false, 1/0, yes/no or on/off");
}

std::vector<std::string> flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

int run_cli(int argc, const char* const* argv,
            const std::vector<std::string>& known,
            const std::function<int(const flags&)>& body) {
  try {
    const flags opts(argc, argv);
    for (const std::string& name : opts.names()) {
      if (std::find(known.begin(), known.end(), name) != known.end()) continue;
      std::string accepted;
      for (const std::string& k : known) accepted += " --" + k;
      throw flag_error("--" + name + ": unknown flag (accepted:" + accepted +
                       ")");
    }
    return body(opts);
  } catch (const flag_error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 2;
  } catch (const spec_error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 2;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }
}

}  // namespace ntom

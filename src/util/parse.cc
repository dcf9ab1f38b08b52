#include "util/parse.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace pghive::util {

StatusOr<int64_t> ParseInt64(const std::string& text) {
  if (text.empty()) return Status::ParseError("empty integer");
  // strtoll silently skips leading whitespace; a knob value of " 3" should
  // be rejected like any other non-integer, not quietly accepted.
  if (std::isspace(static_cast<unsigned char>(text.front()))) {
    return Status::ParseError("'" + text + "' is not an integer");
  }
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::ParseError("'" + text + "' is not an integer");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("'" + text + "' overflows a 64-bit integer");
  }
  return static_cast<int64_t>(parsed);
}

StatusOr<int64_t> ParseInt64InRange(const std::string& text, int64_t min,
                                    int64_t max, const std::string& what) {
  StatusOr<int64_t> parsed = ParseInt64(text);
  if (!parsed.ok()) {
    return Status::ParseError(what + ": " + parsed.status().message());
  }
  if (*parsed < min || *parsed > max) {
    return Status::OutOfRange(what + " must be in [" + std::to_string(min) +
                              ", " + std::to_string(max) + "], got " + text);
  }
  return *parsed;
}

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

StatusOr<Args> ParseArgs(int argc, const char* const* argv, int first,
                         const std::set<std::string>& flags,
                         const std::set<std::string>& switches) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + key + "'");
    }
    key.erase(0, 2);
    std::string value = "true";
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    if (!flags.count(key)) {
      return Status::InvalidArgument("unknown option --" + key);
    }
    if (eq != std::string::npos && switches.count(key)) {
      return Status::InvalidArgument("--" + key +
                                     " is a switch and takes no value");
    }
    if (eq == std::string::npos && !switches.count(key)) {
      if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        return Status::InvalidArgument("--" + key + " needs a value");
      }
      value = argv[++i];
    }
    // Keeping either value of a repeated flag would run a command the user
    // did not type in full.
    if (!args.options.emplace(key, value).second) {
      return Status::InvalidArgument("duplicate option --" + key);
    }
  }
  return args;
}

}  // namespace pghive::util

#ifndef PGHIVE_UTIL_PARSE_H_
#define PGHIVE_UTIL_PARSE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "util/status.h"

namespace pghive::util {

/// Strict base-10 integer parsing: the whole string must be one integer
/// (no trailing junk, no empty input), replacing the bool/out-param parsers
/// the CLI used to carry. Garbage returns ParseError instead of silently
/// falling back — an ignored typo in a knob would quietly change what gets
/// measured or served.
StatusOr<int64_t> ParseInt64(const std::string& text);

/// ParseInt64 plus an inclusive range check (OutOfRange on violation).
/// `what` names the knob in the error message ("--threads", "--batches").
StatusOr<int64_t> ParseInt64InRange(const std::string& text, int64_t min,
                                    int64_t max, const std::string& what);

/// The flags of one command line, each key without its "--" mapped to its
/// value ("true" for a switch).
struct Args {
  std::map<std::string, std::string> options;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const;
};

/// Parses argv[first..argc) against the keys in `flags`, the one parser of
/// `pghive` and `pghived`. A key also in `switches` takes no value
/// ("--key"); every other needs one ("--key V" or "--key=V"), and an
/// argument that starts with "--" is never taken as a value. An unknown or
/// repeated flag, a flag missing its value, a switch given one, or a
/// positional token is an InvalidArgument naming it.
StatusOr<Args> ParseArgs(int argc, const char* const* argv, int first,
                         const std::set<std::string>& flags,
                         const std::set<std::string>& switches = {});

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_PARSE_H_

#ifndef PGHIVE_UTIL_PARSE_H_
#define PGHIVE_UTIL_PARSE_H_

#include <cstdint>
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

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_PARSE_H_

#include "core/options.h"

#include <utility>

#include "util/parse.h"

namespace pghive::core {

util::Status PgHiveOptions::Validate() const {
  if (num_threads > kMaxThreads) {
    return util::Status::OutOfRange(
        "threads must be in [0, " + std::to_string(kMaxThreads) +
        "] (0 = hardware threads), got " + std::to_string(num_threads));
  }
  if (jaccard_threshold < 0.0 || jaccard_threshold > 1.0) {
    return util::Status::OutOfRange("jaccard_threshold must be in [0, 1]");
  }
  if (!adaptive && bucket_length <= 0.0) {
    return util::Status::OutOfRange(
        "bucket_length must be > 0 with adaptive parameterization off");
  }
  return util::Status::Ok();
}

namespace {

util::StatusOr<size_t> ParseKnob(const std::string& value,
                                 const std::string& key) {
  util::StatusOr<int64_t> parsed = util::ParseInt64(value);
  if (!parsed.ok()) {
    return util::Status::ParseError(key + ": " + parsed.status().message());
  }
  if (*parsed < 0) {
    return util::Status::OutOfRange(key + " must be non-negative, got " +
                                    value);
  }
  return static_cast<size_t>(*parsed);
}

}  // namespace

util::Status ApplyOptionFlags(const std::map<std::string, std::string>& flags,
                              PgHiveOptions* options) {
  for (const auto& [key, value] : flags) {
    if (key == "method") {
      if (value == "minhash") {
        options->method = ClusterMethod::kMinHash;
      } else if (value == "elsh") {
        options->method = ClusterMethod::kElsh;
      } else {
        return util::Status::InvalidArgument(
            "method must be 'elsh' or 'minhash', got '" + value + "'");
      }
    } else if (key == "threads") {
      auto parsed = ParseKnob(value, key);
      if (!parsed.ok()) return parsed.status();
      options->num_threads = *parsed;
    } else if (key == "sample-datatypes") {
      if (value != "true" && value != "false") {
        return util::Status::InvalidArgument(
            "sample-datatypes must be 'true' or 'false', got '" + value + "'");
      }
      options->datatype_options.sample = (value == "true");
    } else if (key == "seed") {
      auto parsed = ParseKnob(value, key);
      if (!parsed.ok()) return parsed.status();
      options->seed = *parsed;
    } else {
      return util::Status::InvalidArgument("unknown option '" + key + "'");
    }
  }
  return options->Validate();
}

util::StatusOr<PgHiveOptions> ParsePgHiveOptions(
    const std::map<std::string, std::string>& flags) {
  PgHiveOptions options;
  util::Status status = ApplyOptionFlags(flags, &options);
  if (!status.ok()) return status;
  return options;
}

}  // namespace pghive::core

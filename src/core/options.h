#ifndef PGHIVE_CORE_OPTIONS_H_
#define PGHIVE_CORE_OPTIONS_H_

#include <map>
#include <string>

#include "core/pghive.h"
#include "util/status.h"

namespace pghive::core {

/// Knob bounds shared by PgHiveOptions::Validate and every front end's help
/// text. 0 threads means hardware concurrency, so the minimum differs from
/// the other knobs.
inline constexpr size_t kMaxThreads = 4096;
inline constexpr size_t kMaxPipelineDepth = 64;

/// Applies string knobs onto `options` — the one parser behind both the
/// `pghive discover` flags and the pghived `create-session` parameters, so
/// a graph discovered over the wire runs with exactly the options the
/// one-shot CLI would have used. Recognized keys (all optional):
///
///   method=elsh|minhash      threads=N          pipeline-depth=N
///   data-plane=columnar|row  sample-datatypes=true    seed=N
///
/// Unknown keys are rejected (InvalidArgument) so typos fail loudly. Parse
/// errors surface as ParseError; range violations come from
/// options->Validate(), which this function calls last.
util::Status ApplyOptionFlags(const std::map<std::string, std::string>& flags,
                              PgHiveOptions* options);

/// Convenience wrapper: defaults + ApplyOptionFlags.
util::StatusOr<PgHiveOptions> ParsePgHiveOptions(
    const std::map<std::string, std::string>& flags);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_OPTIONS_H_

#ifndef PGHIVE_TOOLS_BENCH_DIFF_LIB_H_
#define PGHIVE_TOOLS_BENCH_DIFF_LIB_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace pghive::tools {

/// One entry of a speedup sweep, keyed by a stable name
/// ("<stage>/threads=<n>").
struct BenchEntry {
  std::string name;
  /// Parallel speedup over the 1-thread run of the same stage.
  double speedup = 0.0;
};

/// A matched (baseline, current) pair and the drop in its speedup.
struct DiffRow {
  std::string name;
  double base_speedup = 0.0;  ///< 0 when either side's speedup is not > 0.
  double cur_speedup = 0.0;
  /// (base - cur) / base * 100 on the speedups; + means scaling got worse.
  double speedup_drop_pct = 0.0;
};

/// Parses the bench_micro --speedup_json artifact ("stages": per-stage,
/// per-thread-count results). Returns entries in file order; kParseError on
/// malformed input or any other format (an empty but well-formed sweep
/// parses to an empty vector).
util::StatusOr<std::vector<BenchEntry>> ParseBenchJson(const std::string& text);

/// Joins baseline and current by entry name (baseline order). Entries
/// present on only one side are skipped — a changed stage set is not a
/// regression, but a diff with no rows at all compares nothing.
std::vector<DiffRow> DiffEntries(const std::vector<BenchEntry>& baseline,
                                 const std::vector<BenchEntry>& current);

/// The gate predicate: the row's parallel speedup dropped by strictly more
/// than threshold_pct percent. Rows without a meaningful ratio (a side's
/// speedup not > 0) never regress. Speedup ratios divide out the machine,
/// so the gate holds up on heterogeneous CI runners.
bool IsRegression(const DiffRow& row, double threshold_pct);

/// True if IsRegression holds for any row.
bool AnyRegression(const std::vector<DiffRow>& rows, double threshold_pct);

/// Names of the rows IsRegression flags, in row order.
std::vector<std::string> RegressedNames(const std::vector<DiffRow>& rows,
                                        double threshold_pct);

/// The warn-then-fail policy: a regression only fails the gate when the
/// same entry already regressed in the previous run (`prior`, that run's
/// RegressedNames); a first trip is a warning. Returns the failing subset
/// of `regressed_now` in order.
std::vector<std::string> ConsecutiveRegressions(
    const std::vector<std::string>& regressed_now,
    const std::vector<std::string>& prior);

/// Renders the speedup table as GitHub-flavored markdown (for the CI job
/// summary): one row per entry, regressions past the threshold flagged.
/// When `prior` is non-null the warn-then-fail policy is reflected in the
/// status column (first trip = warn, consecutive trip = fail).
std::string MarkdownTable(const std::vector<DiffRow>& rows,
                          double threshold_pct,
                          const std::vector<std::string>* prior = nullptr);

}  // namespace pghive::tools

#endif  // PGHIVE_TOOLS_BENCH_DIFF_LIB_H_

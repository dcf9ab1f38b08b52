#ifndef PGHIVE_TOOLS_BENCH_DIFF_LIB_H_
#define PGHIVE_TOOLS_BENCH_DIFF_LIB_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace pghive::tools {

/// One timed entry extracted from a bench JSON file, keyed by a stable name
/// ("<stage>/threads=<n>" for the speedup-sweep format, the benchmark name
/// for the google-benchmark format).
struct BenchEntry {
  std::string name;
  double ms = 0.0;
  /// Parallel speedup over the 1-thread run of the same stage. Only the
  /// sweep format carries it; 0 means absent.
  double speedup = 0.0;
};

/// A matched (baseline, current) pair with its relative deltas.
struct DiffRow {
  std::string name;
  double base_ms = 0.0;
  double cur_ms = 0.0;
  double delta_pct = 0.0;  ///< (cur - base) / base * 100; + means slower.
  double base_speedup = 0.0;  ///< 0 when either side lacks a speedup.
  double cur_speedup = 0.0;
  /// (base - cur) / base * 100 on the speedups; + means scaling got worse.
  double speedup_drop_pct = 0.0;
};

/// What the gate compares. Absolute per-entry milliseconds are only
/// meaningful on fixed hardware; speedup ratios divide out the machine, so
/// they are the robust choice on heterogeneous CI runners.
enum class GateMode {
  kAbsoluteMs,
  kSpeedupRatio,
};

/// Parses either supported bench JSON format, detected by its top-level key:
///   - the bench_micro --speedup_json artifact ("stages": per-stage,
///     per-thread-count ms), or
///   - google-benchmark --benchmark_out ("benchmarks": real_time +
///     time_unit, converted to ms).
/// Returns entries in file order; kParseError on malformed input (an empty
/// but well-formed file parses to an empty vector).
util::StatusOr<std::vector<BenchEntry>> ParseBenchJson(const std::string& text);

/// Joins baseline and current by entry name (baseline order). Entries
/// present on only one side are skipped — a changed benchmark set is not a
/// regression.
std::vector<DiffRow> DiffEntries(const std::vector<BenchEntry>& baseline,
                                 const std::vector<BenchEntry>& current);

/// The gate predicate. kAbsoluteMs: the row slowed down by strictly more
/// than threshold_pct percent. kSpeedupRatio: the row's parallel speedup
/// dropped by strictly more than threshold_pct percent. Rows without a
/// meaningful ratio (non-positive baseline ms, or a side missing speedup
/// data) never regress.
bool IsRegression(const DiffRow& row, double threshold_pct,
                  GateMode mode = GateMode::kAbsoluteMs);

/// True if IsRegression holds for any row.
bool AnyRegression(const std::vector<DiffRow>& rows, double threshold_pct,
                   GateMode mode = GateMode::kAbsoluteMs);

/// Names of the rows IsRegression flags, in row order.
std::vector<std::string> RegressedNames(const std::vector<DiffRow>& rows,
                                        double threshold_pct,
                                        GateMode mode = GateMode::kAbsoluteMs);

/// The warn-then-fail policy: a regression only fails the gate when the
/// same entry already regressed in the previous run (`prior`, that run's
/// RegressedNames); a first trip is a warning. Returns the failing subset
/// of `regressed_now` in order.
std::vector<std::string> ConsecutiveRegressions(
    const std::vector<std::string>& regressed_now,
    const std::vector<std::string>& prior);

/// Renders the delta table as GitHub-flavored markdown (for the CI job
/// summary): one row per entry, regressions past the threshold flagged.
/// kSpeedupRatio tables show the speedup columns instead of raw ms. When
/// `prior` is non-null the warn-then-fail policy is reflected in the status
/// column (first trip = warn, consecutive trip = fail).
std::string MarkdownTable(const std::vector<DiffRow>& rows,
                          double threshold_pct,
                          GateMode mode = GateMode::kAbsoluteMs,
                          const std::vector<std::string>* prior = nullptr);

}  // namespace pghive::tools

#endif  // PGHIVE_TOOLS_BENCH_DIFF_LIB_H_

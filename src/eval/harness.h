#ifndef PGHIVE_EVAL_HARNESS_H_
#define PGHIVE_EVAL_HARNESS_H_

#include <string>
#include <vector>

#include "core/pghive.h"
#include "datasets/generator.h"
#include "datasets/noise.h"
#include "eval/f1.h"

namespace pghive::eval {

/// The four compared methods (§5, "Baselines").
enum class Method { kPgHiveElsh, kPgHiveMinHash, kGmmSchema, kSchemI };

const char* MethodName(Method m);

/// One experimental cell: method x noise x label availability.
struct RunConfig {
  Method method = Method::kPgHiveElsh;
  double noise = 0.0;               ///< Property removal fraction (0-0.4).
  double label_availability = 1.0;  ///< 1.0, 0.5 or 0.0.
  uint64_t seed = 1;
  /// Overrides for the PG-HIVE pipeline (ignored by baselines); when
  /// adaptive is true the paper's heuristic picks (b, T).
  bool adaptive = true;
  double bucket_length = 2.0;
  size_t num_tables = 20;
  /// Incremental mode: >1 splits the stream into this many random batches.
  size_t num_batches = 1;
};

/// One experimental measurement.
struct RunResult {
  bool ok = false;          ///< Baselines fail below 100% labels.
  std::string error;
  F1Result node_f1;
  F1Result edge_f1;         ///< Zeroed for GMMSchema (no edge types).
  bool has_edge_result = false;
  double discovery_ms = 0;  ///< Time until type discovery (Fig. 5).
  double total_ms = 0;
  size_t num_node_clusters = 0;
  size_t num_edge_clusters = 0;
  /// Per-batch discovery times (Fig. 7; size == num_batches).
  std::vector<double> batch_ms;
};

/// Runs one method on a noisy copy of the dataset and scores it against the
/// ground truth. The input dataset is not modified.
RunResult RunMethod(const datasets::Dataset& dataset, const RunConfig& config);

/// Reads the PGHIVE_SCALE environment variable (default 1.0, clamped to
/// [0.05, 100]); all benches multiply dataset sizes by this.
double EnvScale();

}  // namespace pghive::eval

#endif  // PGHIVE_EVAL_HARNESS_H_

#ifndef PGHIVE_CORE_DATATYPE_INFERENCE_H_
#define PGHIVE_CORE_DATATYPE_INFERENCE_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "core/schema.h"
#include "pg/graph.h"
#include "util/thread_pool.h"

namespace pghive::core {

/// Data type inference options (§4.4). With sampling enabled, only a
/// fraction of each property's values is examined ("10% of the properties,
/// and at least 1000"), which trades a small error (Fig. 8) for speed. A
/// type of at most min_sample instances is always scanned in full. The
/// fraction and the floor are the paper's; they and the sampling seed are
/// fixed.
struct DataTypeOptions {
  bool sample = false;
  static constexpr double sample_fraction = 0.1;
  static constexpr size_t min_sample = 1000;
  static constexpr uint64_t seed = 13;
};

/// Fills PropertyInfo::data_type for every property of every type by
/// joining the inferred types of observed values (full scan or sampled).
/// Values unseen (e.g. sampling skipped everything) default to STRING. A
/// full scan reads each instance once for all of its type's keys and gives
/// every key FullScanType's result; a sampled type draws one sample per key.
///
/// With a pool, the per-type scans fan out across workers. Each type draws
/// its sample from an RNG seeded by (options.seed, type kind, type index) —
/// pre-split, never shared — so the inferred types are identical at every
/// pool size (including the serial path).
void InferDataTypes(const pg::PropertyGraph& graph, SchemaGraph* schema,
                    const DataTypeOptions& options = {},
                    util::ThreadPool* pool = nullptr);

/// The sampling error of Fig. 8 for a single property: the fraction of
/// *sampled* values whose individually-inferred type disagrees with the
/// full-scan joined type:
///   error(p) = (1/|S_p|) * sum_{v in S_p} 1[f(v) != f(D_p)].
struct SamplingErrorReport {
  /// One entry per (type, property) pair with at least one value.
  std::vector<double> errors;

  /// Histogram over the paper's bins: [0,0.05), [0.05,0.10), [0.10,0.20),
  /// [0.20,inf). Fractions normalized by the number of properties.
  std::array<double, 4> BinFractions() const;
};

SamplingErrorReport ComputeSamplingErrors(const pg::PropertyGraph& graph,
                                          const SchemaGraph& schema,
                                          const DataTypeOptions& options);

/// Joins the inferred types of all values of `key` across `instances`
/// (exposed for tests). Nodes or edges selected by `edges`.
pg::DataType FullScanType(const pg::PropertyGraph& graph,
                          const std::vector<uint64_t>& instances, bool edges,
                          pg::PropKeyId key);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_DATATYPE_INFERENCE_H_

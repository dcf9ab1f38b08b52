#ifndef PGHIVE_BASELINES_GMM_SCHEMA_H_
#define PGHIVE_BASELINES_GMM_SCHEMA_H_

#include <cstdint>
#include <vector>

#include "baselines/gmm.h"
#include "pg/graph.h"
#include "util/status.h"

namespace pghive::baselines {

/// What a caller chooses of the GMMSchema baseline: the seed of its fit
/// sample. The rest are the published settings, GmmSchema's constants.
struct GmmSchemaOptions {
  uint64_t seed = 23;
};

/// Result of a GMMSchema run: a node clustering only (the baseline does not
/// infer edge types; Table 1).
struct GmmSchemaResult {
  /// node id -> cluster id.
  std::vector<uint32_t> node_assignment;
  size_t num_clusters = 0;
  size_t em_iterations = 0;  ///< Total EM iterations (drives Fig. 5 shape).
};

/// Reimplementation of the GMMSchema baseline (Bonifati, Dumbrava & Mir,
/// EDBT 2022) as described in §2 of PG-HIVE: hierarchical Gaussian-mixture
/// clustering of nodes over their property distributions, with one initial
/// component per observed label set (labels seed the mixture; properties
/// drive EM).
///
/// Limitations faithfully reproduced:
///   - nodes only (no edge types),
///   - requires a fully labeled dataset: returns FailedPrecondition when any
///     node lacks labels,
///   - clustering quality hinges on property distributions, so missing/noisy
///     properties blur the mixture and EM misassigns (the paper's collapse
///     beyond 20% noise),
///   - samples for performance, affecting completeness.
class GmmSchema {
 public:
  /// Sampling cap for the EM fit — the published system "applies sampling
  /// techniques to improve performance on large graphs"; the mixture is fit
  /// on at most this many nodes and then all nodes are hard-assigned.
  static constexpr size_t kFitSampleCap = 2000;
  /// Hierarchical refinement: components whose 2-way split improves BIC are
  /// split recursively up to this depth. Under noise the inflated
  /// within-type variance triggers more splits, reproducing both the
  /// accuracy collapse and the runtime growth the paper reports.
  static constexpr size_t kSplitDepth = 2;

  explicit GmmSchema(GmmSchemaOptions options) : options_(options) {}

  util::StatusOr<GmmSchemaResult> Discover(const pg::PropertyGraph& graph) const;

 private:
  GmmSchemaOptions options_;
};

}  // namespace pghive::baselines

#endif  // PGHIVE_BASELINES_GMM_SCHEMA_H_

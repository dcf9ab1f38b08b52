#ifndef PGHIVE_BASELINES_SCHEMI_H_
#define PGHIVE_BASELINES_SCHEMI_H_

#include <cstdint>
#include <vector>

#include "pg/graph.h"
#include "util/status.h"

namespace pghive::baselines {

/// Result of a SchemI run: node and edge clusterings.
struct SchemiResult {
  std::vector<uint32_t> node_assignment;  ///< node id -> cluster.
  std::vector<uint32_t> edge_assignment;  ///< edge id -> cluster.
  size_t num_node_clusters = 0;
  size_t num_edge_clusters = 0;
};

/// Reimplementation of the SchemI baseline (Lbath, Bonifati & Harmer, EDBT
/// 2021) as characterized in §2 of PG-HIVE: each distinct label is treated
/// as a separate type and similar types are grouped by shared structure.
///
/// Faithfully reproduced limitations:
///   - assumes all nodes and edges are labeled (FailedPrecondition
///     otherwise),
///   - multi-labeled elements are forced into a single-label type (we pick
///     the globally least frequent label as the most specific one), mixing
///     or fragmenting label-set-defined ground-truth types,
///   - edge types are keyed by label alone, ignoring endpoints,
///   - the structure-based merge step over-merges under noise.
class SchemI {
 public:
  /// Types whose property sets have Jaccard >= this are merged in the
  /// refinement step ("groups similar node types based on shared labels").
  /// The loose threshold is the baseline's documented inaccuracy source: it
  /// over-merges structurally similar but semantically distinct types, and
  /// under property noise the shrunken key sets trigger further spurious
  /// merges.
  static constexpr double kMergeThreshold = 0.5;
  /// Refinement rounds: each round re-scans every instance against every
  /// current type (the naive per-instance comparisons that make SchemI
  /// ~2x slower than PG-HIVE's single LSH pass; Fig. 5).
  static constexpr size_t kRefinementRounds = 3;

  static util::StatusOr<SchemiResult> Discover(const pg::PropertyGraph& graph);
};

}  // namespace pghive::baselines

#endif  // PGHIVE_BASELINES_SCHEMI_H_

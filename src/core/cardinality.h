#ifndef PGHIVE_CORE_CARDINALITY_H_
#define PGHIVE_CORE_CARDINALITY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/schema.h"
#include "pg/graph.h"

namespace pghive::core {

/// Counts, over a list of (from, to) node pairs, the distinct `to` nodes of
/// each `from` node. Count() buckets the pairs by `from` with a counting sort
/// and counts each bucket with a last-seen mark per node: O(pairs) per call,
/// with no hashing and no sort. The scratch is two arrays sized to the node
/// count once, at construction, plus one slot per pair. Each call resets
/// only the entries it touched, so one counter serves any number of calls.
class DistinctDegreeCounter {
 public:
  explicit DistinctDegreeCounter(size_t num_nodes);

  /// (from, number of distinct `to`) for every node that occurs as `from`,
  /// in order of first occurrence. Every id must be below `num_nodes`. The
  /// result stays valid until the next call.
  const std::vector<std::pair<pg::NodeId, size_t>>& Count(
      const std::vector<std::pair<pg::NodeId, pg::NodeId>>& pairs);

 private:
  std::vector<size_t> cursor_;     // Per node: bucket size, then its offset.
  std::vector<pg::NodeId> seen_;   // Per node: the `from` that last saw it.
  std::vector<pg::NodeId> bucketed_;  // The `to` values grouped by `from`.
  std::vector<std::pair<pg::NodeId, size_t>> degrees_;
};

/// Computes the cardinality constraint of every edge type (§4.4):
///   max_out(rho) = max over sources of the number of distinct targets
///                  reached through edges of this type, and
///   max_in(rho)  = max over targets of distinct sources.
/// The pair classifies as 1:1 / N:1 / 1:N / M:N. These are sound *upper
/// bounds*: the data never exhibits a higher multiplicity than recorded
/// (lower bounds would require scanning unconnected nodes; future work in
/// the paper).
///
/// One serial pass: O(E + V) per call for E typed edges and V graph nodes.
/// The scratch is one DistinctDegreeCounter sized to graph.num_nodes() and
/// one (src, dst) pair list reused across the edge types.
void ComputeCardinalities(const pg::PropertyGraph& graph, SchemaGraph* schema);

/// Computes the cardinality for an explicit edge-instance list (used by
/// tests).
Cardinality CardinalityForEdges(const pg::PropertyGraph& graph,
                                const std::vector<uint64_t>& edge_ids);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_CARDINALITY_H_

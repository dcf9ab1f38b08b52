#ifndef PGHIVE_PG_BATCH_H_
#define PGHIVE_PG_BATCH_H_

#include <cstdint>
#include <vector>

#include "pg/graph.h"

namespace pghive::pg {

/// One batch G_s of a property-graph stream (§4.6): a subset of node ids and
/// edge ids of the underlying graph. Batches reference the full graph rather
/// than copying it, so incremental processing shares the vocabulary and the
/// endpoint labels of cross-batch edges remain resolvable.
struct GraphBatch {
  std::vector<NodeId> node_ids;
  std::vector<EdgeId> edge_ids;

  bool empty() const { return node_ids.empty() && edge_ids.empty(); }
  size_t size() const { return node_ids.size() + edge_ids.size(); }
};

/// Returns a single batch containing the entire graph (the static pipeline
/// is the 1-batch special case of Algorithm 1).
GraphBatch FullBatch(const PropertyGraph& graph);

/// Randomly partitions the graph into `num_batches` batches (the paper's
/// incremental evaluation uses 10 random batches). One batch is
/// FullBatch(graph), in id order for every seed, so a one-batch stream
/// processes the graph as static discovery does. Every node and edge
/// appears in exactly one batch; an edge may arrive before or after its
/// endpoints, which the pipeline must tolerate (both the sequential
/// ProcessBatch loop and core::BatchPipeline do — endpoint labels resolve
/// through the full graph the batch references, so an early edge embeds
/// its endpoints' labels without needing their nodes to have streamed in).
/// tests/pg/batch_properties_test.cc pins the partition/determinism
/// invariants down over randomized shapes.
std::vector<GraphBatch> SplitIntoBatches(const PropertyGraph& graph,
                                         size_t num_batches, uint64_t seed);

}  // namespace pghive::pg

#endif  // PGHIVE_PG_BATCH_H_

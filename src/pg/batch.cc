#include "pg/batch.h"

#include "util/rng.h"
#include "util/status.h"

namespace pghive::pg {

GraphBatch FullBatch(const PropertyGraph& graph) {
  GraphBatch batch;
  batch.node_ids.reserve(graph.num_nodes());
  for (NodeId i = 0; i < graph.num_nodes(); ++i) batch.node_ids.push_back(i);
  batch.edge_ids.reserve(graph.num_edges());
  for (EdgeId i = 0; i < graph.num_edges(); ++i) batch.edge_ids.push_back(i);
  return batch;
}

std::vector<GraphBatch> SplitIntoBatches(const PropertyGraph& graph,
                                         size_t num_batches, uint64_t seed) {
  PGHIVE_CHECK(num_batches > 0);
  if (num_batches == 1) return {FullBatch(graph)};
  std::vector<GraphBatch> batches(num_batches);
  util::Rng rng(seed);
  auto node_perm = rng.Permutation(graph.num_nodes());
  auto edge_perm = rng.Permutation(graph.num_edges());
  for (size_t i = 0; i < node_perm.size(); ++i) {
    batches[i % num_batches].node_ids.push_back(node_perm[i]);
  }
  for (size_t i = 0; i < edge_perm.size(); ++i) {
    batches[i % num_batches].edge_ids.push_back(edge_perm[i]);
  }
  return batches;
}

}  // namespace pghive::pg

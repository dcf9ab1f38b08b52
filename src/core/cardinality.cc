#include "core/cardinality.h"

#include <algorithm>

namespace pghive::core {

DistinctDegreeCounter::DistinctDegreeCounter(size_t num_nodes)
    : cursor_(num_nodes, 0), seen_(num_nodes, pg::kInvalidNode) {}

const std::vector<std::pair<pg::NodeId, size_t>>& DistinctDegreeCounter::Count(
    const std::vector<std::pair<pg::NodeId, pg::NodeId>>& pairs) {
  // Bucket sizes; degrees_ lists each `from` once.
  degrees_.clear();
  for (const auto& [from, to] : pairs) {
    if (cursor_[from]++ == 0) degrees_.emplace_back(from, 0);
  }
  // Sizes become start offsets, buckets laid out in degrees_ order.
  size_t offset = 0;
  for (const auto& [from, degree] : degrees_) {
    size_t size = cursor_[from];
    cursor_[from] = offset;
    offset += size;
  }
  // Scatter; each cursor ends at the end of its bucket.
  bucketed_.resize(pairs.size());
  for (const auto& [from, to] : pairs) bucketed_[cursor_[from]++] = to;
  // A `to` counts once per bucket: the first visit marks it with `from`.
  size_t begin = 0;
  for (auto& [from, degree] : degrees_) {
    const size_t end = cursor_[from];
    cursor_[from] = 0;
    for (size_t i = begin; i < end; ++i) {
      pg::NodeId& seen = seen_[bucketed_[i]];
      if (seen != from) {
        seen = from;
        ++degree;
      }
    }
    begin = end;
  }
  for (pg::NodeId to : bucketed_) seen_[to] = pg::kInvalidNode;
  return degrees_;
}

namespace {

size_t MaxDegree(const std::vector<std::pair<pg::NodeId, size_t>>& degrees) {
  size_t max = 0;
  for (const auto& [node, degree] : degrees) max = std::max(max, degree);
  return max;
}

// Fills `pairs` with the edges' (src, dst), counts distinct targets per
// source, then swaps every pair and counts distinct sources per target.
Cardinality Bound(const pg::PropertyGraph& graph,
                  const std::vector<uint64_t>& edge_ids,
                  DistinctDegreeCounter* counter,
                  std::vector<std::pair<pg::NodeId, pg::NodeId>>* pairs) {
  pairs->clear();
  for (uint64_t id : edge_ids) {
    const pg::Edge& e = graph.edge(id);
    pairs->emplace_back(e.src, e.dst);
  }
  Cardinality c;
  c.max_out = MaxDegree(counter->Count(*pairs));
  for (auto& [a, b] : *pairs) std::swap(a, b);
  c.max_in = MaxDegree(counter->Count(*pairs));
  c.kind = ClassifyCardinality(c.max_out, c.max_in);
  return c;
}

}  // namespace

Cardinality CardinalityForEdges(const pg::PropertyGraph& graph,
                                const std::vector<uint64_t>& edge_ids) {
  DistinctDegreeCounter counter(graph.num_nodes());
  std::vector<std::pair<pg::NodeId, pg::NodeId>> pairs;
  return Bound(graph, edge_ids, &counter, &pairs);
}

void ComputeCardinalities(const pg::PropertyGraph& graph,
                          SchemaGraph* schema) {
  DistinctDegreeCounter counter(graph.num_nodes());
  std::vector<std::pair<pg::NodeId, pg::NodeId>> pairs;
  for (auto& t : schema->edge_types()) {
    t.cardinality = Bound(graph, t.instances, &counter, &pairs);
  }
}

}  // namespace pghive::core

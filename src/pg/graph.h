#ifndef PGHIVE_PG_GRAPH_H_
#define PGHIVE_PG_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pg/property_map.h"
#include "pg/vocabulary.h"

namespace pghive::pg {

using NodeId = uint64_t;
using EdgeId = uint64_t;

constexpr NodeId kInvalidNode = UINT64_MAX;

/// A node of the property graph (Def. 3.1): a finite (possibly empty) label
/// set plus key-value properties.
struct Node {
  NodeId id = 0;
  std::vector<LabelId> labels;  // Sorted, deduplicated.
  PropertyMap properties;

  bool HasLabel(LabelId l) const;
};

/// A directed edge: rho(e) = (src, dst), labels, properties.
struct Edge {
  EdgeId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::vector<LabelId> labels;  // Sorted, deduplicated.
  PropertyMap properties;

  bool HasLabel(LabelId l) const;
};

/// An in-memory directed property multigraph. Nodes and edges are stored in
/// dense vectors and addressed by index-valued ids, which is what the
/// vectorizer, the LSH clusterer, and the evaluation ground truth all key on.
///
/// The graph owns (a shared pointer to) the Vocabulary so several graphs or
/// batches derived from the same dataset can share one label/key universe.
class PropertyGraph {
 public:
  PropertyGraph() : vocab_(std::make_shared<Vocabulary>()) {}
  explicit PropertyGraph(std::shared_ptr<Vocabulary> vocab)
      : vocab_(std::move(vocab)) {}

  /// Adds a node with the given label names; returns its id.
  NodeId AddNode(const std::vector<std::string>& label_names);

  /// Adds a node with pre-interned labels; labels are sorted/deduplicated.
  NodeId AddNodeWithLabelIds(std::vector<LabelId> labels);

  /// Adds an edge; src/dst must be existing node ids.
  EdgeId AddEdge(NodeId src, NodeId dst,
                 const std::vector<std::string>& label_names);

  EdgeId AddEdgeWithLabelIds(NodeId src, NodeId dst,
                             std::vector<LabelId> labels);

  /// Sets a property on a node/edge by key name (interned on first use).
  void SetNodeProperty(NodeId id, std::string_view key, Value value);
  void SetEdgeProperty(EdgeId id, std::string_view key, Value value);

  Node& node(NodeId id) { return nodes_[id]; }
  const Node& node(NodeId id) const { return nodes_[id]; }
  Edge& edge(EdgeId id) { return edges_[id]; }
  const Edge& edge(EdgeId id) const { return edges_[id]; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Node>& mutable_nodes() { return nodes_; }
  std::vector<Edge>& mutable_edges() { return edges_; }

  Vocabulary& vocab() { return *vocab_; }
  const Vocabulary& vocab() const { return *vocab_; }
  std::shared_ptr<Vocabulary> vocab_ptr() const { return vocab_; }

  /// Summary statistics used by Table 2 and the adaptive parameterization.
  struct Stats {
    size_t num_nodes = 0;
    size_t num_edges = 0;
    size_t num_node_labels = 0;     // Distinct labels appearing on nodes.
    size_t num_edge_labels = 0;     // Distinct labels appearing on edges.
    size_t num_node_patterns = 0;   // Distinct (label set, key set) pairs.
    size_t num_edge_patterns = 0;   // Distinct (labels, keys, endpoints).
    size_t num_node_keys = 0;       // Distinct property keys on nodes.
    size_t num_edge_keys = 0;       // Distinct property keys on edges.
    double avg_node_props = 0.0;
    double avg_edge_props = 0.0;
  };
  Stats ComputeStats() const;

 private:
  std::shared_ptr<Vocabulary> vocab_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

/// Normalizes a label id vector: sort + unique.
void NormalizeLabels(std::vector<LabelId>* labels);

}  // namespace pghive::pg

#endif  // PGHIVE_PG_GRAPH_H_

#ifndef PGHIVE_CORE_SCHEMA_H_
#define PGHIVE_CORE_SCHEMA_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pg/graph.h"

namespace pghive::core {

/// Whether a property is present in every instance of its type (§4.4).
enum class Requiredness { kMandatory, kOptional };

/// Edge cardinality classes inferred from max in/out degrees (§4.4).
enum class CardinalityKind {
  kUnknown,
  kOneToOne,    // (1, 1)
  kManyToOne,   // (>1, 1)  -- N:1
  kOneToMany,   // (1, >1)  -- 1:N
  kManyToMany,  // (>1, >1) -- M:N
};

const char* CardinalityKindName(CardinalityKind k);

/// Cardinality constraint C of Def. 3.3: the observed degree bounds.
struct Cardinality {
  size_t max_out = 0;
  size_t max_in = 0;
  CardinalityKind kind = CardinalityKind::kUnknown;
};

/// Classifies (max_out, max_in) into the four cardinality classes.
CardinalityKind ClassifyCardinality(size_t max_out, size_t max_in);

/// A node pattern (Def. 3.5): a label set plus a property-key set.
struct NodePattern {
  std::vector<pg::LabelId> labels;   // Sorted.
  std::vector<pg::PropKeyId> keys;   // Sorted.

  bool operator==(const NodePattern&) const = default;
  uint64_t Hash() const;
};

/// An edge pattern (Def. 3.6): labels, keys, and endpoint label sets.
struct EdgePattern {
  std::vector<pg::LabelId> labels;
  std::vector<pg::PropKeyId> keys;
  std::vector<pg::LabelId> src_labels;
  std::vector<pg::LabelId> dst_labels;

  bool operator==(const EdgePattern&) const = default;
  uint64_t Hash() const;
};

/// The NodePattern hash of a node, read from its own labels and property map
/// without building the pattern: NodePattern{labels, keys}.Hash().
uint64_t NodePatternHash(const pg::Node& node);

/// The EdgePattern hash of an edge of `graph`, read likewise from the edge
/// and its endpoints' label vectors.
uint64_t EdgePatternHash(const pg::PropertyGraph& graph, const pg::Edge& edge);

/// Per-property accumulated statistics of a type. Counts drive the
/// mandatory/optional constraint; the data type is filled by the (optional)
/// inference pass.
struct PropertyInfo {
  size_t count = 0;  ///< Number of instances carrying the property.
  pg::DataType data_type = pg::DataType::kNull;
  Requiredness requiredness = Requiredness::kOptional;
};

/// What node and edge types share (Defs. 3.2 and 3.3): a label set, the
/// per-property evidence, the instances and the distinct patterns they
/// cover. Algorithm 2 merges both kinds by the same unions (Lemmas 1 & 2).
struct SchemaType {
  std::vector<pg::LabelId> labels;  ///< Sorted union; empty => ABSTRACT.
  std::map<pg::PropKeyId, PropertyInfo> properties;
  std::vector<uint64_t> instances;  ///< Node or edge ids of this type.
  size_t instance_count = 0;
  std::set<uint64_t> pattern_hashes;  ///< Distinct element pattern hashes.

  bool is_abstract() const { return labels.empty(); }

  /// The sorted property-key set (K of the type pattern).
  std::vector<pg::PropKeyId> Keys() const;

  /// Display name, e.g. "Person", "Org|Company", "Abstract#3".
  std::string Name(const pg::Vocabulary& vocab, size_t index) const;
};

/// A discovered node type (Def. 3.2).
struct NodeType : SchemaType {};

/// A discovered edge type (Def. 3.3). Endpoints rho_e accumulate as pairs of
/// source/target *node-type label-set tokens* so connectivity survives
/// merging without pointer chasing.
struct EdgeType : SchemaType {
  /// Distinct (src token, dst token) endpoint pairs (pg::kNoToken allowed).
  std::set<std::pair<uint32_t, uint32_t>> endpoints;
  Cardinality cardinality;
};

/// The hash that identifies a label set: Algorithm 2 merges labeled
/// candidates on it, and the validator matches labeled elements with it.
uint64_t LabelSetKey(const std::vector<pg::LabelId>& labels);

/// The schema graph of Def. 3.4: node types, edge types, and connectivity.
/// Also tracks instance -> type assignments for evaluation.
class SchemaGraph {
 public:
  SchemaGraph() = default;

  std::vector<NodeType>& node_types() { return node_types_; }
  const std::vector<NodeType>& node_types() const { return node_types_; }
  std::vector<EdgeType>& edge_types() { return edge_types_; }
  const std::vector<EdgeType>& edge_types() const { return edge_types_; }

  size_t num_node_types() const { return node_types_.size(); }
  size_t num_edge_types() const { return edge_types_.size(); }

  /// instance id -> node type index (dense vectors sized to the graph);
  /// UINT32_MAX for unassigned instances.
  std::vector<uint32_t> NodeAssignment(size_t num_nodes) const;
  std::vector<uint32_t> EdgeAssignment(size_t num_edges) const;

 private:
  std::vector<NodeType> node_types_;
  std::vector<EdgeType> edge_types_;
};

/// Union-merge of label vectors (sorted inputs -> sorted output).
std::vector<uint32_t> UnionSorted(const std::vector<uint32_t>& a,
                                  const std::vector<uint32_t>& b);

/// Jaccard similarity of two sorted id vectors; 1.0 when both empty.
double JaccardSorted(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_SCHEMA_H_

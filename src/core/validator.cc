#include "core/validator.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/cardinality.h"

namespace pghive::core {

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUnknownNodeType:
      return "UNKNOWN_NODE_TYPE";
    case ViolationKind::kUnknownEdgeType:
      return "UNKNOWN_EDGE_TYPE";
    case ViolationKind::kMissingMandatory:
      return "MISSING_MANDATORY";
    case ViolationKind::kUndeclaredProperty:
      return "UNDECLARED_PROPERTY";
    case ViolationKind::kDataTypeMismatch:
      return "DATATYPE_MISMATCH";
    case ViolationKind::kEndpointMismatch:
      return "ENDPOINT_MISMATCH";
    case ViolationKind::kCardinalityExceeded:
      return "CARDINALITY_EXCEEDED";
  }
  return "?";
}

size_t ValidationReport::CountKind(ViolationKind kind) const {
  size_t count = 0;
  for (const Violation& v : violations) count += v.kind == kind;
  return count;
}

std::string ValidationReport::Summary() const {
  std::ostringstream out;
  out << "checked " << nodes_checked << " nodes, " << edges_checked
      << " edges: ";
  if (conforms()) {
    out << "CONFORMS";
  } else {
    out << violations.size() << " violations";
    for (int k = 0; k <= static_cast<int>(ViolationKind::kCardinalityExceeded);
         ++k) {
      size_t c = CountKind(static_cast<ViolationKind>(k));
      if (c > 0) {
        out << ", " << ViolationKindName(static_cast<ViolationKind>(k)) << "="
            << c;
      }
    }
  }
  return out.str();
}

namespace {

// One kind's types as matching reads them: by exact label set, the labeled
// ones and the ABSTRACT ones.
template <typename TypeT>
struct TypeIndex {
  std::unordered_map<uint64_t, const TypeT*> by_labels;
  std::vector<const TypeT*> labeled;
  std::vector<const TypeT*> abstract;

  explicit TypeIndex(const std::vector<TypeT>& types) {
    for (const TypeT& t : types) {
      if (t.is_abstract()) {
        abstract.push_back(&t);
      } else {
        by_labels[LabelSetKey(t.labels)] = &t;
        labeled.push_back(&t);
      }
    }
  }

  // The types a labeled element may match: the one with its exact label
  // set first, then, unless STRICT, every other whose label set is a
  // superset of the element's (union-labeled types emerge when the LSH pass
  // groups structurally identical elements of several labels, §4.3).
  std::vector<const TypeT*> Candidates(const std::vector<pg::LabelId>& labels,
                                       bool strict) const {
    std::vector<const TypeT*> out;
    auto it = by_labels.find(LabelSetKey(labels));
    if (it != by_labels.end()) out.push_back(it->second);
    if (strict) return out;
    for (const TypeT* t : labeled) {
      if (t != (out.empty() ? nullptr : out[0]) &&
          std::includes(t->labels.begin(), t->labels.end(), labels.begin(),
                        labels.end())) {
        out.push_back(t);
      }
    }
    return out;
  }
};

// Whether a value is compatible with a declared type: the value's inferred
// type joined with the declared type must not generalize past it.
bool ValueCompatible(const pg::Value& value, pg::DataType declared) {
  if (declared == pg::DataType::kString || declared == pg::DataType::kNull) {
    return true;  // Everything renders as a string.
  }
  pg::DataType observed = value.InferType();
  if (observed == pg::DataType::kNull) return true;
  return pg::JoinDataTypes(observed, declared) == declared;
}

}  // namespace

SchemaValidator::SchemaValidator(const SchemaGraph* schema,
                                 ValidatorOptions options)
    : schema_(schema), options_(options) {}

ValidationReport SchemaValidator::Validate(
    const pg::PropertyGraph& graph) const {
  ValidationReport report;
  const bool strict = options_.mode == SchemaMode::kStrict;
  pg::Vocabulary& vocab = const_cast<pg::PropertyGraph&>(graph).vocab();

  auto full = [&]() {
    return options_.max_violations > 0 &&
           report.violations.size() >= options_.max_violations;
  };
  auto add = [&](ViolationKind kind, bool is_edge, uint64_t id,
                 std::string detail) {
    if (full()) return;
    report.violations.push_back({kind, is_edge, id, std::move(detail)});
  };

  const TypeIndex<NodeType> nodes(schema_->node_types());
  const TypeIndex<EdgeType> edges(schema_->edge_types());

  // Property checks for a candidate type, collected into `out` so callers
  // can compare candidates and keep the cleanest match.
  auto property_violations = [&](const auto& type,
                                 const pg::PropertyMap& props, bool is_edge,
                                 uint64_t id, std::vector<Violation>* out) {
    for (const auto& [key, info] : type.properties) {
      if (info.requiredness == Requiredness::kMandatory && !props.Has(key)) {
        out->push_back({ViolationKind::kMissingMandatory, is_edge, id,
                        "missing mandatory property '" + vocab.KeyName(key) +
                            "'"});
      }
    }
    if (!strict) return;
    for (const auto& [key, value] : props.entries()) {
      auto it = type.properties.find(key);
      if (it == type.properties.end()) {
        out->push_back({ViolationKind::kUndeclaredProperty, is_edge, id,
                        "property '" + vocab.KeyName(key) +
                            "' not declared"});
        continue;
      }
      if (!ValueCompatible(value, it->second.data_type)) {
        out->push_back({ViolationKind::kDataTypeMismatch, is_edge, id,
                        "property '" + vocab.KeyName(key) + "' value '" +
                            value.ToString() + "' incompatible with " +
                            pg::DataTypeName(it->second.data_type)});
      }
    }
  };

  // Checks an element against all candidate types; conforms if any candidate
  // is violation-free, otherwise reports the cleanest candidate's issues.
  auto check_candidates = [&](const auto& candidates,
                              const pg::PropertyMap& props, bool is_edge,
                              uint64_t id) {
    std::vector<Violation> best;
    bool first = true;
    for (const auto* type : candidates) {
      std::vector<Violation> current;
      property_violations(*type, props, is_edge, id, &current);
      if (current.empty()) return;  // Clean match.
      if (first || current.size() < best.size()) best = std::move(current);
      first = false;
    }
    for (Violation& v : best) {
      if (full()) return;
      report.violations.push_back(std::move(v));
    }
  };

  // Unlabeled elements match any abstract type covering their key set.
  auto matches_abstract = [&](const auto& abstract_types,
                              const pg::PropertyMap& props) {
    for (const auto* t : abstract_types) {
      bool covered = true;
      for (const auto& [key, value] : props.entries()) {
        if (!t->properties.count(key)) {
          covered = false;
          break;
        }
      }
      if (covered) return true;
    }
    return false;
  };

  // --- Nodes ---
  for (const pg::Node& node : graph.nodes()) {
    if (full()) break;
    ++report.nodes_checked;
    if (node.labels.empty()) {
      if (!matches_abstract(nodes.abstract, node.properties) &&
          !nodes.by_labels.empty()) {
        // An unlabeled node is fine in LOOSE mode if some labeled type could
        // host it (Jaccard-mergeable); in STRICT mode it must match an
        // ABSTRACT type.
        if (strict) {
          add(ViolationKind::kUnknownNodeType, false, node.id,
              "unlabeled node matches no ABSTRACT type");
        }
      }
      continue;
    }
    auto candidates = nodes.Candidates(node.labels, strict);
    if (candidates.empty()) {
      add(ViolationKind::kUnknownNodeType, false, node.id,
          "no type with this label set");
      continue;
    }
    check_candidates(candidates, node.properties, false, node.id);
  }

  // --- Edges ---
  // STRICT: each matched edge's (src, dst), by edge type index, for the
  // cardinality check below.
  std::vector<std::vector<std::pair<pg::NodeId, pg::NodeId>>> typed_pairs(
      strict ? schema_->edge_types().size() : 0);
  for (const pg::Edge& edge : graph.edges()) {
    if (full()) break;
    ++report.edges_checked;
    const EdgeType* type = nullptr;
    if (edge.labels.empty()) {
      if (strict && !matches_abstract(edges.abstract, edge.properties)) {
        add(ViolationKind::kUnknownEdgeType, true, edge.id,
            "unlabeled edge matches no ABSTRACT type");
      }
      continue;
    }
    auto candidates = edges.Candidates(edge.labels, strict);
    if (candidates.empty()) {
      add(ViolationKind::kUnknownEdgeType, true, edge.id,
          "no type with this label set");
      continue;
    }
    type = candidates[0];
    check_candidates(candidates, edge.properties, true, edge.id);

    if (strict) {
      // Endpoint check: the (src token, dst token) pair must be declared.
      uint32_t src_token =
          vocab.TokenForLabelSet(graph.node(edge.src).labels);
      uint32_t dst_token =
          vocab.TokenForLabelSet(graph.node(edge.dst).labels);
      if (!type->endpoints.empty() &&
          type->endpoints.count({src_token, dst_token}) == 0) {
        add(ViolationKind::kEndpointMismatch, true, edge.id,
            "endpoint pair not declared for this edge type");
      }
      typed_pairs[type - schema_->edge_types().data()].emplace_back(edge.src,
                                                                   edge.dst);
    }
  }

  // Cardinality bounds (STRICT): no node may have more distinct neighbours
  // through an edge type than the schema's recorded upper bound. Each
  // violation names the offending node; they are reported in ascending node
  // id (then schema order, max_out before max_in), so a max_violations cap
  // keeps the same ones on every run.
  if (strict) {
    std::vector<Violation> exceeded;
    DistinctDegreeCounter counter(graph.num_nodes());
    auto check = [&](const auto& pairs, const std::string& type_name,
                     size_t bound, const char* neighbours,
                     const char* bound_name) {
      for (const auto& [node, degree] : counter.Count(pairs)) {
        if (degree <= bound) continue;
        exceeded.push_back({ViolationKind::kCardinalityExceeded, false, node,
                            std::to_string(degree) + " distinct " +
                                neighbours + " through " + type_name +
                                " exceed " + bound_name + " " +
                                std::to_string(bound)});
      }
    };
    for (size_t t = 0; t < typed_pairs.size(); ++t) {
      const EdgeType& type = schema_->edge_types()[t];
      auto& pairs = typed_pairs[t];
      if (type.cardinality.kind == CardinalityKind::kUnknown || pairs.empty()) {
        continue;
      }
      const std::string name = type.Name(vocab, t);
      check(pairs, name, type.cardinality.max_out, "targets", "max_out");
      for (auto& [a, b] : pairs) std::swap(a, b);
      check(pairs, name, type.cardinality.max_in, "sources", "max_in");
    }
    std::stable_sort(exceeded.begin(), exceeded.end(),
                     [](const Violation& a, const Violation& b) {
                       return a.element_id < b.element_id;
                     });
    for (Violation& v : exceeded) {
      if (full()) break;
      report.violations.push_back(std::move(v));
    }
  }

  return report;
}

}  // namespace pghive::core

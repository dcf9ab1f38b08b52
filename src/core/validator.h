#ifndef PGHIVE_CORE_VALIDATOR_H_
#define PGHIVE_CORE_VALIDATOR_H_

#include <string>
#include <vector>

#include "core/schema.h"
#include "core/serialize.h"
#include "pg/graph.h"

namespace pghive::core {

/// Kinds of conformance violations a validator can report.
enum class ViolationKind {
  kUnknownNodeType,      ///< No type matches the node's label set.
  kUnknownEdgeType,      ///< No type matches the edge's label set.
  kMissingMandatory,     ///< A MANDATORY property is absent.
  kUndeclaredProperty,   ///< STRICT only: a property not in the type.
  kDataTypeMismatch,     ///< STRICT only: value incompatible with the type.
  kEndpointMismatch,     ///< STRICT only: edge endpoints not in rho_s.
  kCardinalityExceeded,  ///< STRICT only: a node's distinct neighbours
                         ///< through an edge type exceed its bound; the
                         ///< violation names the node.
};

const char* ViolationKindName(ViolationKind kind);

/// One conformance violation.
struct Violation {
  ViolationKind kind;
  bool is_edge = false;
  uint64_t element_id = 0;
  std::string detail;
};

/// Outcome of validating a graph against a schema.
struct ValidationReport {
  std::vector<Violation> violations;
  size_t nodes_checked = 0;
  size_t edges_checked = 0;

  bool conforms() const { return violations.empty(); }
  size_t CountKind(ViolationKind kind) const;
  std::string Summary() const;
};

/// Validation options.
struct ValidatorOptions {
  /// LOOSE mode checks only typing and mandatory properties; STRICT mode
  /// additionally enforces the closed property set, data types, endpoint
  /// pairs, and cardinality bounds (§4.5's STRICT/LOOSE trade-off).
  SchemaMode mode = SchemaMode::kLoose;
  /// Stop after this many violations (0 = unlimited).
  size_t max_violations = 0;
};

/// Validates a property graph against a (discovered or hand-written) schema.
/// A node/edge matches the type whose label set equals its own; unlabeled
/// elements match any ABSTRACT type whose key set covers theirs.
///
/// This realizes the paper's motivation that a discovered schema "supports
/// validation processes" (§4.4): the schema PG-HIVE infers from a clean
/// graph always validates that same graph (tested property), and deviations
/// introduced later are reported precisely.
class SchemaValidator {
 public:
  SchemaValidator(const SchemaGraph* schema, ValidatorOptions options);

  ValidationReport Validate(const pg::PropertyGraph& graph) const;

 private:
  const SchemaGraph* schema_;
  ValidatorOptions options_;
};

}  // namespace pghive::core

#endif  // PGHIVE_CORE_VALIDATOR_H_

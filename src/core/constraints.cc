#include "core/constraints.h"

namespace pghive::core {

namespace {

void InferForType(SchemaType* type) {
  for (auto& [key, info] : type->properties) {
    info.requiredness = (type->instance_count > 0 &&
                         info.count == type->instance_count)
                            ? Requiredness::kMandatory
                            : Requiredness::kOptional;
  }
}

}  // namespace

void InferPropertyConstraints(SchemaGraph* schema) {
  for (auto& t : schema->node_types()) InferForType(&t);
  for (auto& t : schema->edge_types()) InferForType(&t);
}

}  // namespace pghive::core

#ifndef PGHIVE_CORE_CONSTRAINTS_H_
#define PGHIVE_CORE_CONSTRAINTS_H_

#include "core/schema.h"

namespace pghive::core {

/// Classifies every property of every type as MANDATORY or OPTIONAL (§4.4):
/// a property p is mandatory for type T iff f_T(p) = |{i in I_T : p in P_i}|
/// / |I_T| equals 1, i.e. it appears in every instance. Soundness: a
/// property marked mandatory is indeed present in all observed instances.
void InferPropertyConstraints(SchemaGraph* schema);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_CONSTRAINTS_H_

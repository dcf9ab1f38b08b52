#ifndef PGHIVE_CORE_PGSCHEMA_PARSER_H_
#define PGHIVE_CORE_PGSCHEMA_PARSER_H_

#include <string>
#include <string_view>

#include "core/schema.h"
#include "pg/vocabulary.h"
#include "util/status.h"

namespace pghive::core {

/// Parses the PG-Schema dialect emitted by SerializePgSchema back into a
/// SchemaGraph, so exported `.pgs` files can be loaded for validation or
/// merging (CREATE GRAPH TYPE ... { (T : L & L2 {k TYPE, OPTIONAL k2}),
/// (:S)-[E : L {..}]->(:T) }). Labels and keys are interned into `vocab`;
/// each is a run of [A-Za-z0-9_#|.] or a backtick-quoted name (see
/// PgSchemaName).
///
/// Instance-level evidence (instance lists, pattern hashes) is obviously
/// absent from the text form; parsed types carry counts of 0/1 chosen so
/// that MANDATORY/OPTIONAL round-trips through InferPropertyConstraints
/// (count == instance_count == 1 for mandatory, count == 0 for optional).
util::StatusOr<SchemaGraph> ParsePgSchema(const std::string& text,
                                        pg::Vocabulary* vocab);

/// How SerializePgSchema spells a label or property key so that
/// ParsePgSchema reads the same name back: as it is when it is a nonempty run
/// of [A-Za-z0-9_#|.] (and, for a key, not the keyword OPTIONAL or OPEN),
/// else in backticks with each backtick in it doubled.
std::string PgSchemaName(std::string_view name, bool is_key);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_PGSCHEMA_PARSER_H_

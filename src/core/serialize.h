#ifndef PGHIVE_CORE_SERIALIZE_H_
#define PGHIVE_CORE_SERIALIZE_H_

#include <string>
#include <string_view>

#include "core/schema.h"
#include "pg/vocabulary.h"
#include "util/status.h"

namespace pghive::core {

/// PG-Schema constraint level (§4.5): LOOSE allows data to deviate from the
/// declared structure (OPEN types, no datatype assertions); STRICT declares
/// data types, MANDATORY/OPTIONAL markers, and edge cardinalities.
enum class SchemaMode { kLoose, kStrict };

/// Renders the schema as a PG-Schema graph type declaration, e.g.
///
///   CREATE GRAPH TYPE PgHiveSchema STRICT {
///     (PersonType : Person {name STRING, OPTIONAL bday DATE}),
///     (:PersonType)-[KnowsType : KNOWS {OPTIONAL since DATE}]->(:PersonType)
///   }
///
/// ABSTRACT types are emitted with the ABSTRACT keyword, matching the
/// paper's handling of unlabeled clusters.
std::string SerializePgSchema(const SchemaGraph& schema,
                              const pg::Vocabulary& vocab, SchemaMode mode);

/// Renders the schema as an XML Schema Definition document: one xs:element
/// per node type with properties as attributes (use="required|optional"),
/// and one per edge type carrying source/target references.
std::string SerializeXsd(const SchemaGraph& schema,
                         const pg::Vocabulary& vocab);

/// Human-readable multi-line schema summary used by the examples.
std::string DescribeSchema(const SchemaGraph& schema,
                           const pg::Vocabulary& vocab);

/// Maps a DataType to its XSD builtin ("xs:string", "xs:long", ...).
const char* XsdTypeName(pg::DataType t);

/// Serializes the full SchemaGraph — including evidence the text renderings
/// drop (instance ids, pattern hashes, endpoint tokens, cardinality bounds) —
/// into a self-describing little-endian byte string. This is the schema
/// section of every PgHive::SaveState snapshot and pghived's `binary`
/// get-schema form: readers reconstruct an independent SchemaGraph without
/// touching the (still-mutating) vocabulary or hive. Format: "PGHB" magic,
/// u32 version (2), then length-prefixed type records whose instance ids are
/// varints.
std::string SerializeSchemaBinary(const SchemaGraph& schema);

/// Inverse of SerializeSchemaBinary; also reads version 1 (fixed-width u64
/// instance ids), so older snapshots still restore. Rejects bad magic, other
/// versions (naming them), and truncated payloads with ParseError; a round
/// trip is lossless.
util::StatusOr<SchemaGraph> ParseSchemaBinary(std::string_view bytes);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_SERIALIZE_H_

#ifndef PGHIVE_CORE_SCHEMA_DIFF_H_
#define PGHIVE_CORE_SCHEMA_DIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/schema.h"
#include "pg/vocabulary.h"
#include "util/status.h"

namespace pghive::core {

/// What happened to one property of a type between two schema versions.
struct PropertyDelta {
  enum class Kind : uint8_t {
    kAdded = 0,
    kRemoved = 1,
    kRetyped = 2,
    kRequirednessChanged = 3,
  };
  Kind kind = Kind::kAdded;
  std::string key;  ///< Property key name (resolved, self-contained).
  pg::DataType old_type = pg::DataType::kNull;  ///< kRetyped only.
  pg::DataType new_type = pg::DataType::kNull;  ///< kAdded / kRetyped.
  Requiredness old_requiredness = Requiredness::kOptional;
  Requiredness new_requiredness = Requiredness::kOptional;
};

/// One node or edge type that appeared, disappeared, or changed between two
/// schema versions. All names are resolved to strings at diff time so a
/// changefeed consumer needs no access to the producing hive's vocabulary.
struct TypeDelta {
  enum class Kind : uint8_t { kAdded = 0, kRemoved = 1, kChanged = 2 };
  Kind kind = Kind::kAdded;
  bool is_edge = false;
  std::string name;  ///< Display name ("Person", "Org|Company", "Abstract#3").
  /// Change in supporting instances (next minus prev; insertion alone never
  /// makes it negative).
  int64_t instance_delta = 0;
  std::vector<PropertyDelta> properties;
  // Edge types only:
  CardinalityKind old_cardinality = CardinalityKind::kUnknown;
  CardinalityKind new_cardinality = CardinalityKind::kUnknown;
  uint64_t endpoints_added = 0;    ///< New (src, dst) endpoint pairs.
  uint64_t endpoints_removed = 0;  ///< Endpoint pairs no longer observed.
};

/// One changefeed record: everything that changed between two published
/// schema versions. Versions count publishes: one per merged batch, one
/// for Finish (the same numbering in the CLI and in pghived).
struct SchemaDiff {
  uint64_t version_from = 0;
  uint64_t version_to = 0;
  uint64_t batch = 0;  ///< Batches merged when `version_to` was produced.
  std::vector<TypeDelta> node_deltas;
  std::vector<TypeDelta> edge_deltas;

  bool empty() const { return node_deltas.empty() && edge_deltas.empty(); }
};

/// Structural diff of two schemas produced by the *same* hive (ids in both
/// resolve through `vocab`). Types are matched by label set — the stable
/// identity across batch merges — with positional pairing among types that
/// share one (abstract types all share the empty set). Unmatched types in
/// `prev` become kRemoved deltas, unmatched in `next` kAdded, and matched
/// pairs that differ in properties, instance count, cardinality, or
/// endpoints become kChanged. Deterministic: output order follows `next`'s
/// type order, then `prev`'s for removals.
SchemaDiff DiffSchemas(const SchemaGraph& prev, const SchemaGraph& next,
                       const pg::Vocabulary& vocab);

/// Binary changefeed record: "PGHF" magic + u8 format version + one
/// CRC-framed util/binio section holding the record payload. Records are
/// designed to be appended to a feed file back to back.
std::string SerializeSchemaDiffBinary(const SchemaDiff& diff);

/// The serialized changefeed record of schema `version` (from version - 1),
/// `next` diffed against `prev`, with `batch` batches merged. Both
/// `pghive discover --changefeed` and pghived sessions build theirs here.
std::string BuildChangefeedRecord(const SchemaGraph& prev,
                                  const SchemaGraph& next,
                                  const pg::Vocabulary& vocab,
                                  uint64_t version, uint64_t batch);

/// Parses a feed of zero or more concatenated SerializeSchemaDiffBinary
/// records. Truncation, bit flips (CRC), and malformed payloads fail with
/// ParseError; untrusted counts are clamped against the remaining input
/// before any allocation.
util::StatusOr<std::vector<SchemaDiff>> ParseSchemaDiffStream(
    const std::string& bytes);

/// One record recovered by ScanSchemaDiffStream, with its byte extent in the
/// scanned buffer so callers can slice or truncate the raw stream.
struct SchemaDiffRecord {
  SchemaDiff diff;
  size_t offset = 0;  ///< Byte offset of the record's first magic byte.
  size_t length = 0;  ///< Serialized record length in bytes.
};

/// Tolerant variant of ParseSchemaDiffStream for changefeed segment files: a
/// crash can leave a torn record at the tail, so instead of failing the whole
/// stream this returns every complete, CRC-valid record up to the first
/// malformed byte. `*valid_prefix` receives the length of the clean prefix
/// (== bytes.size() iff the whole stream parsed); everything past it is
/// untrusted and should be truncated away before appending new records.
std::vector<SchemaDiffRecord> ScanSchemaDiffStream(std::string_view bytes,
                                                   size_t* valid_prefix);

/// Cuts the feed file at `path` back to its longest clean prefix of records
/// numbered 1..max_version, dropping a torn tail and the versions a resumed
/// producer writes again, and returns how many versions that prefix holds. A
/// restored pghived session and `pghive discover --resume-from` call it with
/// their snapshot's versions (batches, plus 1 if finished). Only a regular
/// file is read: a missing one is an empty feed (0 versions), and a device or
/// FIFO is left alone (reading /dev/zero never ends) and counts as holding
/// all max_version versions.
util::StatusOr<uint64_t> TruncateFeedFile(const std::string& path,
                                          uint64_t max_version);

/// Human-readable rendering, one line per delta:
///   == v3 -> v4 (batch 4): 2 node / 1 edge deltas
///   + node Person|Student (+120 instances)
///   ~ edge KNOWS: property since retyped DATE -> DATETIME
std::string DescribeSchemaDiff(const SchemaDiff& diff);

/// One schema-drift signal found in a changefeed record: a property that
/// changed datatype, or an edge cardinality that moved *against* the
/// insertion lattice. Under pure insertion cardinality only widens
/// (1:1 -> N:1 / 1:N -> N:M), and a PgHive stream only inserts; a
/// non-widening transition between two established kinds means the feed's
/// producer removed instances or rewrote history, and usually means the
/// modeled world shifted.
struct DriftAlert {
  enum class Kind : uint8_t { kPropertyRetype = 0, kCardinalityFlip = 1 };
  Kind kind = Kind::kPropertyRetype;
  bool is_edge = false;
  uint64_t version_to = 0;  ///< Feed version that introduced the drift.
  std::string type_name;
  // kPropertyRetype only:
  std::string key;
  pg::DataType old_type = pg::DataType::kNull;
  pg::DataType new_type = pg::DataType::kNull;
  // kCardinalityFlip only:
  CardinalityKind old_cardinality = CardinalityKind::kUnknown;
  CardinalityKind new_cardinality = CardinalityKind::kUnknown;
};

/// True when `to` is reachable from `from` by adding instances alone:
/// kUnknown precedes everything, kOneToOne precedes the two asymmetric
/// kinds, and every kind precedes kManyToMany. A change for which this is
/// false (including any transition back to kUnknown) is a flip.
bool IsCardinalityWidening(CardinalityKind from, CardinalityKind to);

/// Flags every property retype and cardinality flip in one diff record.
/// Alert order is deterministic: node deltas before edge deltas, each in the
/// diff's own delta order.
std::vector<DriftAlert> ScanForDrift(const SchemaDiff& diff);

/// One-line rendering, e.g.
///   v4 node Person: property age retyped INTEGER -> STRING
///   v7 edge KNOWS: cardinality flipped N:M -> 1:N
std::string DescribeDriftAlert(const DriftAlert& alert);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_SCHEMA_DIFF_H_

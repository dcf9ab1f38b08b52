#include "core/schema_diff.h"

#include <filesystem>
#include <map>
#include <sstream>
#include <utility>

#include "pg/value.h"
#include "util/binio.h"
#include "util/file_io.h"

namespace pghive::core {

namespace {

constexpr char kFeedMagic[4] = {'P', 'G', 'H', 'F'};
constexpr uint8_t kFeedVersion = 1;
constexpr uint32_t kDiffSection = 1;

const char* RequirednessName(Requiredness r) {
  return r == Requiredness::kMandatory ? "MANDATORY" : "OPTIONAL";
}

/// Property-map diff shared by node and edge types. Output order is
/// deterministic: next's key order for added/retyped/requiredness, then
/// prev's key order for removals (both maps are ordered by key id).
std::vector<PropertyDelta> DiffProperties(
    const std::map<pg::PropKeyId, PropertyInfo>& prev,
    const std::map<pg::PropKeyId, PropertyInfo>& next,
    const pg::Vocabulary& vocab) {
  std::vector<PropertyDelta> deltas;
  for (const auto& [key, info] : next) {
    auto it = prev.find(key);
    if (it == prev.end()) {
      PropertyDelta d;
      d.kind = PropertyDelta::Kind::kAdded;
      d.key = vocab.KeyName(key);
      d.new_type = info.data_type;
      d.new_requiredness = info.requiredness;
      deltas.push_back(std::move(d));
      continue;
    }
    if (it->second.data_type != info.data_type) {
      PropertyDelta d;
      d.kind = PropertyDelta::Kind::kRetyped;
      d.key = vocab.KeyName(key);
      d.old_type = it->second.data_type;
      d.new_type = info.data_type;
      deltas.push_back(std::move(d));
    }
    if (it->second.requiredness != info.requiredness) {
      PropertyDelta d;
      d.kind = PropertyDelta::Kind::kRequirednessChanged;
      d.key = vocab.KeyName(key);
      d.old_requiredness = it->second.requiredness;
      d.new_requiredness = info.requiredness;
      deltas.push_back(std::move(d));
    }
  }
  for (const auto& [key, info] : prev) {
    if (next.count(key)) continue;
    PropertyDelta d;
    d.kind = PropertyDelta::Kind::kRemoved;
    d.key = vocab.KeyName(key);
    d.old_type = info.data_type;
    d.old_requiredness = info.requiredness;
    deltas.push_back(std::move(d));
  }
  return deltas;
}

/// All of a type's properties as kAdded (for a new type) or kRemoved (for a
/// vanished one), so a consumer sees the full shape without a lookup.
std::vector<PropertyDelta> WholeTypeProperties(
    const std::map<pg::PropKeyId, PropertyInfo>& props,
    const pg::Vocabulary& vocab, bool removed) {
  std::vector<PropertyDelta> deltas;
  for (const auto& [key, info] : props) {
    PropertyDelta d;
    d.kind =
        removed ? PropertyDelta::Kind::kRemoved : PropertyDelta::Kind::kAdded;
    d.key = vocab.KeyName(key);
    if (removed) {
      d.old_type = info.data_type;
      d.old_requiredness = info.requiredness;
    } else {
      d.new_type = info.data_type;
      d.new_requiredness = info.requiredness;
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

/// Counts elements of `a` not in `b` (both sets ordered the same way).
template <typename Set>
uint64_t CountMissing(const Set& a, const Set& b) {
  uint64_t n = 0;
  for (const auto& x : a) {
    if (!b.count(x)) ++n;
  }
  return n;
}

/// Matches prev/next types by label set with positional pairing inside each
/// set (abstract types all share the empty set), then emits deltas. Works
/// for both NodeType and EdgeType; `extras` fills the edge-only fields.
template <typename Type, typename ExtrasFn>
void DiffTypes(const std::vector<Type>& prev, const std::vector<Type>& next,
               const pg::Vocabulary& vocab, bool is_edge, ExtrasFn extras,
               std::vector<TypeDelta>* out) {
  std::map<std::vector<pg::LabelId>, std::vector<size_t>> prev_by_labels;
  for (size_t i = 0; i < prev.size(); ++i) {
    prev_by_labels[prev[i].labels].push_back(i);
  }
  std::map<std::vector<pg::LabelId>, size_t> next_seen;
  std::vector<bool> prev_matched(prev.size(), false);
  for (size_t i = 0; i < next.size(); ++i) {
    const Type& t = next[i];
    size_t occurrence = next_seen[t.labels]++;
    auto group = prev_by_labels.find(t.labels);
    if (group == prev_by_labels.end() ||
        occurrence >= group->second.size()) {
      TypeDelta d;
      d.kind = TypeDelta::Kind::kAdded;
      d.is_edge = is_edge;
      d.name = t.Name(vocab, i);
      d.instance_delta = static_cast<int64_t>(t.instance_count);
      d.properties = WholeTypeProperties(t.properties, vocab, false);
      extras(static_cast<const Type*>(nullptr), &t, &d);
      out->push_back(std::move(d));
      continue;
    }
    size_t j = group->second[occurrence];
    prev_matched[j] = true;
    const Type& p = prev[j];
    TypeDelta d;
    d.kind = TypeDelta::Kind::kChanged;
    d.is_edge = is_edge;
    d.name = t.Name(vocab, i);
    d.instance_delta = static_cast<int64_t>(t.instance_count) -
                       static_cast<int64_t>(p.instance_count);
    d.properties = DiffProperties(p.properties, t.properties, vocab);
    extras(&p, &t, &d);
    bool changed = d.instance_delta != 0 || !d.properties.empty() ||
                   d.old_cardinality != d.new_cardinality ||
                   d.endpoints_added != 0 || d.endpoints_removed != 0;
    if (changed) out->push_back(std::move(d));
  }
  for (size_t j = 0; j < prev.size(); ++j) {
    if (prev_matched[j]) continue;
    const Type& p = prev[j];
    TypeDelta d;
    d.kind = TypeDelta::Kind::kRemoved;
    d.is_edge = is_edge;
    d.name = p.Name(vocab, j);
    d.instance_delta = -static_cast<int64_t>(p.instance_count);
    d.properties = WholeTypeProperties(p.properties, vocab, true);
    extras(&p, static_cast<const Type*>(nullptr), &d);
    out->push_back(std::move(d));
  }
}

void PutPropertyDelta(std::string* out, const PropertyDelta& d) {
  util::PutU8(out, static_cast<uint8_t>(d.kind));
  util::PutString(out, d.key);
  util::PutU8(out, static_cast<uint8_t>(d.old_type));
  util::PutU8(out, static_cast<uint8_t>(d.new_type));
  util::PutU8(out, static_cast<uint8_t>(d.old_requiredness));
  util::PutU8(out, static_cast<uint8_t>(d.new_requiredness));
}

bool ReadPropertyDelta(util::ByteReader* in, PropertyDelta* d) {
  uint8_t kind = in->ReadU8();
  in->ReadString(&d->key);
  uint8_t old_type = in->ReadU8();
  uint8_t new_type = in->ReadU8();
  uint8_t old_req = in->ReadU8();
  uint8_t new_req = in->ReadU8();
  if (!in->ok() ||
      kind > static_cast<uint8_t>(PropertyDelta::Kind::kRequirednessChanged) ||
      old_type > static_cast<uint8_t>(pg::DataType::kString) ||
      new_type > static_cast<uint8_t>(pg::DataType::kString) || old_req > 1 ||
      new_req > 1) {
    in->Fail();
    return false;
  }
  d->kind = static_cast<PropertyDelta::Kind>(kind);
  d->old_type = static_cast<pg::DataType>(old_type);
  d->new_type = static_cast<pg::DataType>(new_type);
  d->old_requiredness = static_cast<Requiredness>(old_req);
  d->new_requiredness = static_cast<Requiredness>(new_req);
  return true;
}

void PutTypeDelta(std::string* out, const TypeDelta& d) {
  util::PutU8(out, static_cast<uint8_t>(d.kind));
  util::PutU8(out, d.is_edge ? 1 : 0);
  util::PutString(out, d.name);
  util::PutU64(out, static_cast<uint64_t>(d.instance_delta));
  util::PutU64(out, d.properties.size());
  for (const PropertyDelta& p : d.properties) PutPropertyDelta(out, p);
  util::PutU8(out, static_cast<uint8_t>(d.old_cardinality));
  util::PutU8(out, static_cast<uint8_t>(d.new_cardinality));
  util::PutU64(out, d.endpoints_added);
  util::PutU64(out, d.endpoints_removed);
}

bool ReadTypeDelta(util::ByteReader* in, TypeDelta* d) {
  uint8_t kind = in->ReadU8();
  uint8_t is_edge = in->ReadU8();
  in->ReadString(&d->name);
  d->instance_delta = static_cast<int64_t>(in->ReadU64());
  uint64_t num_props = in->ReadU64();
  // Each serialized property delta is at least 6 bytes (kind + empty-string
  // length + four enum bytes); clamp the count before reserving.
  if (!in->SaneCount(num_props, 6)) return false;
  if (kind > static_cast<uint8_t>(TypeDelta::Kind::kChanged) || is_edge > 1) {
    in->Fail();
    return false;
  }
  d->kind = static_cast<TypeDelta::Kind>(kind);
  d->is_edge = is_edge != 0;
  d->properties.resize(num_props);
  for (PropertyDelta& p : d->properties) {
    if (!ReadPropertyDelta(in, &p)) return false;
  }
  uint8_t old_card = in->ReadU8();
  uint8_t new_card = in->ReadU8();
  d->endpoints_added = in->ReadU64();
  d->endpoints_removed = in->ReadU64();
  if (!in->ok() ||
      old_card > static_cast<uint8_t>(CardinalityKind::kManyToMany) ||
      new_card > static_cast<uint8_t>(CardinalityKind::kManyToMany)) {
    in->Fail();
    return false;
  }
  d->old_cardinality = static_cast<CardinalityKind>(old_card);
  d->new_cardinality = static_cast<CardinalityKind>(new_card);
  return true;
}

void DescribeTypeDelta(std::ostringstream* out, const TypeDelta& d) {
  switch (d.kind) {
    case TypeDelta::Kind::kAdded: *out << "+ "; break;
    case TypeDelta::Kind::kRemoved: *out << "- "; break;
    case TypeDelta::Kind::kChanged: *out << "~ "; break;
  }
  *out << (d.is_edge ? "edge " : "node ") << d.name;
  const char* sep = ": ";
  if (d.instance_delta != 0) {
    *out << sep << (d.instance_delta > 0 ? "+" : "") << d.instance_delta
         << " instances";
    sep = ", ";
  }
  for (const PropertyDelta& p : d.properties) {
    *out << sep;
    sep = ", ";
    switch (p.kind) {
      case PropertyDelta::Kind::kAdded:
        *out << "+prop " << p.key << " (" << pg::DataTypeName(p.new_type)
             << " " << RequirednessName(p.new_requiredness) << ")";
        break;
      case PropertyDelta::Kind::kRemoved:
        *out << "-prop " << p.key;
        break;
      case PropertyDelta::Kind::kRetyped:
        *out << "prop " << p.key << " retyped "
             << pg::DataTypeName(p.old_type) << " -> "
             << pg::DataTypeName(p.new_type);
        break;
      case PropertyDelta::Kind::kRequirednessChanged:
        *out << "prop " << p.key << " now "
             << RequirednessName(p.new_requiredness);
        break;
    }
  }
  if (d.is_edge) {
    if (d.old_cardinality != d.new_cardinality) {
      *out << sep << "cardinality " << CardinalityKindName(d.old_cardinality)
           << " -> " << CardinalityKindName(d.new_cardinality);
      sep = ", ";
    }
    if (d.endpoints_added != 0 || d.endpoints_removed != 0) {
      *out << sep << "+" << d.endpoints_added << "/-" << d.endpoints_removed
           << " endpoints";
    }
  }
  *out << "\n";
}

/// Reads one "PGHF" record off `in`, leaving the reader positioned at the
/// next record on success. Shared by the strict stream parser and the
/// tolerant segment-file scanner.
util::Status ReadOneDiffRecord(util::ByteReader* in, SchemaDiff* diff) {
  std::string_view magic = in->ReadBytes(sizeof(kFeedMagic));
  if (!in->ok() || magic != std::string_view(kFeedMagic, sizeof(kFeedMagic))) {
    return util::Status::ParseError("changefeed: bad record magic at byte " +
                                    std::to_string(in->pos()));
  }
  uint8_t version = in->ReadU8();
  if (!in->ok() || version != kFeedVersion) {
    return util::Status::ParseError("changefeed: unsupported record version");
  }
  uint32_t id = 0;
  std::string_view payload;
  if (!util::ReadSection(in, &id, &payload) || id != kDiffSection) {
    return util::Status::ParseError("changefeed: truncated or corrupt record");
  }
  util::ByteReader rec(payload);
  diff->version_from = rec.ReadU64();
  diff->version_to = rec.ReadU64();
  diff->batch = rec.ReadU64();
  for (std::vector<TypeDelta>* deltas :
       {&diff->node_deltas, &diff->edge_deltas}) {
    uint64_t n = rec.ReadU64();
    // A type delta is at least 25 bytes serialized; clamp before resize.
    if (!rec.SaneCount(n, 25)) break;
    deltas->resize(n);
    for (TypeDelta& d : *deltas) {
      if (!ReadTypeDelta(&rec, &d)) break;
    }
    if (!rec.ok()) break;
  }
  if (!rec.ok() || !rec.AtEnd()) {
    return util::Status::ParseError("changefeed: corrupt record payload");
  }
  return util::Status::Ok();
}

}  // namespace

SchemaDiff DiffSchemas(const SchemaGraph& prev, const SchemaGraph& next,
                       const pg::Vocabulary& vocab) {
  SchemaDiff diff;
  DiffTypes(
      prev.node_types(), next.node_types(), vocab, /*is_edge=*/false,
      [](const NodeType*, const NodeType*, TypeDelta*) {}, &diff.node_deltas);
  DiffTypes(
      prev.edge_types(), next.edge_types(), vocab, /*is_edge=*/true,
      [](const EdgeType* p, const EdgeType* n, TypeDelta* d) {
        if (p != nullptr) d->old_cardinality = p->cardinality.kind;
        if (n != nullptr) d->new_cardinality = n->cardinality.kind;
        if (p != nullptr && n != nullptr) {
          d->endpoints_added = CountMissing(n->endpoints, p->endpoints);
          d->endpoints_removed = CountMissing(p->endpoints, n->endpoints);
        } else if (n != nullptr) {
          d->endpoints_added = n->endpoints.size();
        } else {
          d->endpoints_removed = p->endpoints.size();
        }
      },
      &diff.edge_deltas);
  return diff;
}

std::string SerializeSchemaDiffBinary(const SchemaDiff& diff) {
  std::string payload;
  util::PutU64(&payload, diff.version_from);
  util::PutU64(&payload, diff.version_to);
  util::PutU64(&payload, diff.batch);
  util::PutU64(&payload, diff.node_deltas.size());
  for (const TypeDelta& d : diff.node_deltas) PutTypeDelta(&payload, d);
  util::PutU64(&payload, diff.edge_deltas.size());
  for (const TypeDelta& d : diff.edge_deltas) PutTypeDelta(&payload, d);

  std::string out;
  out.append(kFeedMagic, sizeof(kFeedMagic));
  util::PutU8(&out, kFeedVersion);
  util::AppendSection(&out, kDiffSection, payload);
  return out;
}

std::string BuildChangefeedRecord(const SchemaGraph& prev,
                                  const SchemaGraph& next,
                                  const pg::Vocabulary& vocab,
                                  uint64_t version, uint64_t batch) {
  SchemaDiff diff = DiffSchemas(prev, next, vocab);
  diff.version_from = version - 1;
  diff.version_to = version;
  diff.batch = batch;
  return SerializeSchemaDiffBinary(diff);
}

util::StatusOr<std::vector<SchemaDiff>> ParseSchemaDiffStream(
    const std::string& bytes) {
  std::vector<SchemaDiff> records;
  util::ByteReader in(bytes);
  while (!in.AtEnd()) {
    SchemaDiff diff;
    util::Status status = ReadOneDiffRecord(&in, &diff);
    if (!status.ok()) return status;
    records.push_back(std::move(diff));
  }
  return records;
}

std::vector<SchemaDiffRecord> ScanSchemaDiffStream(std::string_view bytes,
                                                   size_t* valid_prefix) {
  std::vector<SchemaDiffRecord> records;
  size_t offset = 0;
  while (offset < bytes.size()) {
    // A fresh reader per record: ByteReader latches failure, and a failed
    // partial read must not poison the records already recovered.
    util::ByteReader in(bytes.substr(offset));
    SchemaDiffRecord record;
    if (!ReadOneDiffRecord(&in, &record.diff).ok()) break;
    record.offset = offset;
    record.length = in.pos();
    offset += record.length;
    records.push_back(std::move(record));
  }
  if (valid_prefix != nullptr) *valid_prefix = offset;
  return records;
}

util::StatusOr<uint64_t> TruncateFeedFile(const std::string& path,
                                          uint64_t max_version) {
  std::error_code error;
  const auto file = std::filesystem::status(path, error);
  if (!std::filesystem::exists(file)) return uint64_t{0};
  if (!std::filesystem::is_regular_file(file)) return max_version;
  auto bytes = util::ReadWholeFile(path);
  if (!bytes.ok()) return bytes.status();
  size_t keep = 0;
  uint64_t kept = 0;
  for (const SchemaDiffRecord& record : ScanSchemaDiffStream(*bytes, nullptr)) {
    if (kept == max_version || record.diff.version_to != kept + 1) break;
    keep = record.offset + record.length;
    ++kept;
  }
  if (keep < bytes->size()) {
    util::Status cut = util::TruncateFile(path, keep);
    if (!cut.ok()) return cut;
  }
  return kept;
}

bool IsCardinalityWidening(CardinalityKind from, CardinalityKind to) {
  if (from == to || from == CardinalityKind::kUnknown) return true;
  if (to == CardinalityKind::kManyToMany) return true;
  return from == CardinalityKind::kOneToOne &&
         (to == CardinalityKind::kManyToOne ||
          to == CardinalityKind::kOneToMany);
}

std::vector<DriftAlert> ScanForDrift(const SchemaDiff& diff) {
  std::vector<DriftAlert> alerts;
  for (const std::vector<TypeDelta>* deltas :
       {&diff.node_deltas, &diff.edge_deltas}) {
    for (const TypeDelta& t : *deltas) {
      for (const PropertyDelta& p : t.properties) {
        if (p.kind != PropertyDelta::Kind::kRetyped) continue;
        // A property acquiring its first concrete type is refinement, not
        // drift — the datatype twin of the kUnknown cardinality rule. The
        // one-shot pipeline resolves statistics at Finish, so every feed
        // would otherwise flood with NULL -> X alerts on its final record.
        if (p.old_type == pg::DataType::kNull) continue;
        DriftAlert a;
        a.kind = DriftAlert::Kind::kPropertyRetype;
        a.is_edge = t.is_edge;
        a.version_to = diff.version_to;
        a.type_name = t.name;
        a.key = p.key;
        a.old_type = p.old_type;
        a.new_type = p.new_type;
        alerts.push_back(std::move(a));
      }
      // Cardinality only exists on matched edge pairs; added/removed types
      // have one side at kUnknown, which never reads as a flip.
      if (t.is_edge && t.kind == TypeDelta::Kind::kChanged &&
          t.old_cardinality != t.new_cardinality &&
          !IsCardinalityWidening(t.old_cardinality, t.new_cardinality)) {
        DriftAlert a;
        a.kind = DriftAlert::Kind::kCardinalityFlip;
        a.is_edge = true;
        a.version_to = diff.version_to;
        a.type_name = t.name;
        a.old_cardinality = t.old_cardinality;
        a.new_cardinality = t.new_cardinality;
        alerts.push_back(std::move(a));
      }
    }
  }
  return alerts;
}

std::string DescribeDriftAlert(const DriftAlert& alert) {
  std::ostringstream out;
  out << "v" << alert.version_to << " " << (alert.is_edge ? "edge " : "node ")
      << alert.type_name << ": ";
  if (alert.kind == DriftAlert::Kind::kPropertyRetype) {
    out << "property " << alert.key << " retyped "
        << pg::DataTypeName(alert.old_type) << " -> "
        << pg::DataTypeName(alert.new_type);
  } else {
    out << "cardinality flipped " << CardinalityKindName(alert.old_cardinality)
        << " -> " << CardinalityKindName(alert.new_cardinality);
  }
  return out.str();
}

std::string DescribeSchemaDiff(const SchemaDiff& diff) {
  std::ostringstream out;
  out << "== v" << diff.version_from << " -> v" << diff.version_to
      << " (batch " << diff.batch << "): " << diff.node_deltas.size()
      << " node / " << diff.edge_deltas.size() << " edge deltas\n";
  for (const TypeDelta& d : diff.node_deltas) DescribeTypeDelta(&out, d);
  for (const TypeDelta& d : diff.edge_deltas) DescribeTypeDelta(&out, d);
  return out.str();
}

}  // namespace pghive::core

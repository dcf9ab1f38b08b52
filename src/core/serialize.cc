#include "core/serialize.h"

#include <cctype>
#include <sstream>

#include "core/pgschema_parser.h"
#include "util/binio.h"

namespace pghive::core {

namespace {

std::string SanitizeIdentifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) return "T";
  // An XML name cannot start with a digit.
  if (std::isdigit(static_cast<unsigned char>(out[0]))) out.insert(0, "_");
  return out;
}

// Spells `names` uniquely in a namespace that already holds `taken`: a name
// keeps its spelling unless a name in `taken` or an earlier one in `names`
// has it, and then takes the first suffix "_2", "_3", ... that no name in
// the namespace spells.
std::vector<std::string> UniqueNames(std::vector<std::string> names,
                                     std::set<std::string> taken) {
  std::set<std::string> spelled = taken;
  spelled.insert(names.begin(), names.end());
  for (std::string& name : names) {
    if (taken.insert(name).second) continue;
    const std::string base = name;
    size_t k = 1;
    do {
      name = base + '_' + std::to_string(++k);
    } while (!spelled.insert(name).second);
    taken.insert(name);
  }
  return names;
}

// The names a file declares for its node types, then its edge types: each
// type's sanitized name plus its kind's suffix, unique in the file.
std::vector<std::string> TypeNames(const SchemaGraph& schema,
                                   const pg::Vocabulary& vocab,
                                   const char* node_suffix,
                                   const char* edge_suffix) {
  std::vector<std::string> names;
  for (size_t i = 0; i < schema.node_types().size(); ++i) {
    names.push_back(
        SanitizeIdentifier(schema.node_types()[i].Name(vocab, i)) +
        node_suffix);
  }
  for (size_t i = 0; i < schema.edge_types().size(); ++i) {
    names.push_back(
        SanitizeIdentifier(schema.edge_types()[i].Name(vocab, i)) +
        edge_suffix);
  }
  return UniqueNames(std::move(names), {});
}

std::string LabelSpec(const pg::Vocabulary& vocab,
                      const std::vector<pg::LabelId>& labels) {
  std::string out;
  for (pg::LabelId l : labels) {
    out += " & ";
    out += PgSchemaName(vocab.LabelName(l), /*is_key=*/false);
  }
  if (!out.empty()) out = out.substr(3);
  return out;
}

std::string PropertyBlock(const pg::Vocabulary& vocab, const SchemaType& type,
                          SchemaMode mode) {
  if (type.properties.empty()) return "";
  std::string out = " {";
  bool first = true;
  for (const auto& [key, info] : type.properties) {
    if (!first) out += ", ";
    first = false;
    if (mode == SchemaMode::kStrict &&
        info.requiredness == Requiredness::kOptional) {
      out += "OPTIONAL ";
    }
    out += PgSchemaName(vocab.KeyName(key), /*is_key=*/true);
    if (mode == SchemaMode::kStrict) {
      out.push_back(' ');
      out += pg::DataTypeName(info.data_type == pg::DataType::kNull
                                  ? pg::DataType::kString
                                  : info.data_type);
    }
  }
  if (mode == SchemaMode::kLoose) out += ", OPEN";
  out += "}";
  return out;
}

// What a node and an edge declaration share: "[ABSTRACT ]<name>
// [ : Labels] {props}", the part inside "( )" or "-[ ]->".
std::string TypeSpec(const pg::Vocabulary& vocab, const SchemaType& type,
                     const std::string& name, SchemaMode mode) {
  std::string out = type.is_abstract() ? "ABSTRACT " : "";
  out += name;
  if (!type.labels.empty()) out += " : " + LabelSpec(vocab, type.labels);
  return out + PropertyBlock(vocab, type, mode);
}

}  // namespace

std::string SerializePgSchema(const SchemaGraph& schema,
                              const pg::Vocabulary& vocab, SchemaMode mode) {
  std::ostringstream out;
  out << "CREATE GRAPH TYPE PgHiveSchema "
      << (mode == SchemaMode::kStrict ? "STRICT" : "LOOSE") << " {\n";
  const std::vector<std::string> names =
      TypeNames(schema, vocab, "Type", "EdgeType");
  const size_t num_nodes = schema.node_types().size();
  bool first = true;
  for (size_t i = 0; i < num_nodes; ++i) {
    if (!first) out << ",\n";
    first = false;
    out << "  (" << TypeSpec(vocab, schema.node_types()[i], names[i], mode)
        << ")";
  }
  for (size_t i = 0; i < schema.edge_types().size(); ++i) {
    const EdgeType& t = schema.edge_types()[i];
    if (!first) out << ",\n";
    first = false;
    // Endpoint spec: the union of source/target tokens observed.
    auto token_list = [&](bool src_side) {
      std::string spec;
      std::set<uint32_t> tokens;
      for (const auto& [s, d] : t.endpoints) {
        uint32_t tok = src_side ? s : d;
        if (tok != pg::kNoToken) tokens.insert(tok);
      }
      bool f = true;
      for (uint32_t tok : tokens) {
        if (!f) spec += " | ";
        f = false;
        spec += SanitizeIdentifier(vocab.TokenName(tok)) + "Type";
      }
      if (spec.empty()) spec = "ANY";
      return spec;
    };
    out << "  (:" << token_list(true) << ")-["
        << TypeSpec(vocab, t, names[num_nodes + i], mode) << "]->(:"
        << token_list(false) << ")";
    if (mode == SchemaMode::kStrict &&
        t.cardinality.kind != CardinalityKind::kUnknown) {
      out << " /* " << CardinalityKindName(t.cardinality.kind) << " */";
    }
  }
  out << "\n}\n";
  return out.str();
}

const char* XsdTypeName(pg::DataType t) {
  switch (t) {
    case pg::DataType::kInteger:
      return "xs:long";
    case pg::DataType::kFloat:
      return "xs:double";
    case pg::DataType::kBoolean:
      return "xs:boolean";
    case pg::DataType::kDate:
      return "xs:date";
    case pg::DataType::kDateTime:
      return "xs:dateTime";
    case pg::DataType::kNull:
    case pg::DataType::kString:
      return "xs:string";
  }
  return "xs:string";
}

std::string SerializeXsd(const SchemaGraph& schema,
                         const pg::Vocabulary& vocab) {
  std::ostringstream out;
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n";
  const std::vector<std::string> names = TypeNames(schema, vocab, "", "_edge");
  const size_t num_nodes = schema.node_types().size();
  // Opens a type's element and declares its properties as attributes, named
  // apart from each other and from the element's `reserved` attributes.
  auto open_element = [&](const SchemaType& t, const std::string& name,
                          std::set<std::string> reserved) {
    out << "  <xs:element name=\"" << name << "\">\n    <xs:complexType>\n";
    std::vector<std::string> keys;
    for (const auto& [key, info] : t.properties) {
      keys.push_back(SanitizeIdentifier(vocab.KeyName(key)));
    }
    keys = UniqueNames(std::move(keys), std::move(reserved));
    size_t k = 0;
    for (const auto& [key, info] : t.properties) {
      out << "      <xs:attribute name=\"" << keys[k++] << "\" type=\""
          << XsdTypeName(info.data_type) << "\" use=\""
          << (info.requiredness == Requiredness::kMandatory ? "required"
                                                            : "optional")
          << "\"/>\n";
    }
  };
  constexpr const char* kCloseElement =
      "    </xs:complexType>\n  </xs:element>\n";
  for (size_t i = 0; i < num_nodes; ++i) {
    open_element(schema.node_types()[i], names[i], {});
    out << kCloseElement;
  }
  for (size_t i = 0; i < schema.edge_types().size(); ++i) {
    const EdgeType& t = schema.edge_types()[i];
    // The structural endpoint references keep their names.
    open_element(t, names[num_nodes + i], {"source", "target"});
    out << "      <xs:attribute name=\"source\" type=\"xs:IDREF\" "
           "use=\"required\"/>\n"
        << "      <xs:attribute name=\"target\" type=\"xs:IDREF\" "
           "use=\"required\"/>\n";
    if (t.cardinality.kind != CardinalityKind::kUnknown) {
      out << "      <!-- cardinality: "
          << CardinalityKindName(t.cardinality.kind) << " -->\n";
    }
    out << kCloseElement;
  }
  out << "</xs:schema>\n";
  return out.str();
}

std::string DescribeSchema(const SchemaGraph& schema,
                           const pg::Vocabulary& vocab) {
  std::ostringstream out;
  out << "Schema: " << schema.num_node_types() << " node types, "
      << schema.num_edge_types() << " edge types\n";
  auto properties = [&](const SchemaType& t) {
    for (const auto& [key, info] : t.properties) {
      out << ' ' << vocab.KeyName(key) << ':'
          << pg::DataTypeName(info.data_type)
          << (info.requiredness == Requiredness::kMandatory ? "!" : "?");
    }
    out << '\n';
  };
  for (size_t i = 0; i < schema.node_types().size(); ++i) {
    const NodeType& t = schema.node_types()[i];
    out << "  node " << t.Name(vocab, i) << " [" << t.instance_count
        << " instances, " << t.pattern_hashes.size() << " patterns]";
    properties(t);
  }
  for (size_t i = 0; i < schema.edge_types().size(); ++i) {
    const EdgeType& t = schema.edge_types()[i];
    out << "  edge " << t.Name(vocab, i) << " [" << t.instance_count
        << " instances, " << CardinalityKindName(t.cardinality.kind) << "]";
    properties(t);
  }
  return out.str();
}

namespace {

// --- Binary schema snapshot ------------------------------------------------
//
// Everything is little-endian and length-prefixed (util/binio framing);
// there are no implicit sizes, so a reader can validate the payload before
// building any structure. Version 2 writes each type's instance ids as a
// varint count and one varint per id, in their in-memory order (datatype
// sampling picks instances by position, so a resume must see that order);
// version 1 wrote a u64 count and a u64 per id, and is still read.

constexpr char kBinaryMagic[4] = {'P', 'G', 'H', 'B'};
constexpr uint32_t kBinaryVersion = 2;
constexpr uint32_t kFixedWidthIdsVersion = 1;

using util::ByteReader;
using util::PutU32;
using util::PutU32Vector;
using util::PutU64;
using util::PutU64Set;
using util::PutU8;
using util::PutVarintVector;

// The record fields every type carries; an edge type's endpoints and
// cardinality follow them.
void PutType(std::string* out, const SchemaType& type) {
  PutU32Vector(out, type.labels);
  PutU64(out, type.properties.size());
  for (const auto& [key, info] : type.properties) {
    PutU32(out, key);
    PutU64(out, info.count);
    PutU8(out, static_cast<uint8_t>(info.data_type));
    PutU8(out, info.requiredness == Requiredness::kMandatory ? 1 : 0);
  }
  PutVarintVector(out, type.instances);
  PutU64(out, type.instance_count);
  PutU64Set(out, type.pattern_hashes);
}

// Each field stops the read immediately on a bad length prefix, so a corrupt
// early field can never let a later untrusted count through.
bool ReadType(ByteReader* in, uint32_t version, SchemaType* type) {
  if (!in->ReadU32Vector(&type->labels)) return false;
  uint64_t n = in->ReadU64();
  if (!in->SaneCount(n, 14)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    pg::PropKeyId key = in->ReadU32();
    PropertyInfo info;
    info.count = in->ReadU64();
    uint8_t data_type = in->ReadU8();
    if (data_type > static_cast<uint8_t>(pg::DataType::kString)) {
      in->Fail();
      return false;
    }
    info.data_type = static_cast<pg::DataType>(data_type);
    info.requiredness =
        in->ReadU8() != 0 ? Requiredness::kMandatory : Requiredness::kOptional;
    type->properties[key] = info;
  }
  if (!in->ok()) return false;
  const bool ids_read = version == kFixedWidthIdsVersion
                            ? in->ReadU64Vector(&type->instances)
                            : in->ReadVarintVector(&type->instances);
  if (!ids_read) return false;
  type->instance_count = in->ReadU64();
  return in->ReadU64Set(&type->pattern_hashes) && in->ok();
}

}  // namespace

std::string SerializeSchemaBinary(const SchemaGraph& schema) {
  std::string out;
  out.append(kBinaryMagic, sizeof(kBinaryMagic));
  PutU32(&out, kBinaryVersion);
  PutU64(&out, schema.num_node_types());
  PutU64(&out, schema.num_edge_types());
  for (const NodeType& t : schema.node_types()) PutType(&out, t);
  for (const EdgeType& t : schema.edge_types()) {
    PutType(&out, t);
    PutU64(&out, t.endpoints.size());
    for (const auto& [src, dst] : t.endpoints) {
      PutU32(&out, src);
      PutU32(&out, dst);
    }
    PutU64(&out, t.cardinality.max_out);
    PutU64(&out, t.cardinality.max_in);
    PutU8(&out, static_cast<uint8_t>(t.cardinality.kind));
  }
  return out;
}

util::StatusOr<SchemaGraph> ParseSchemaBinary(std::string_view bytes) {
  ByteReader in(bytes);
  if (in.ReadBytes(sizeof(kBinaryMagic)) !=
      std::string_view(kBinaryMagic, sizeof(kBinaryMagic))) {
    return util::Status::ParseError("schema binary: bad magic");
  }
  uint32_t version = in.ReadU32();
  if (version != kBinaryVersion && version != kFixedWidthIdsVersion) {
    return util::Status::ParseError("schema binary: unsupported version " +
                                    std::to_string(version));
  }
  uint64_t num_node_types = in.ReadU64();
  uint64_t num_edge_types = in.ReadU64();
  SchemaGraph schema;
  for (uint64_t i = 0; i < num_node_types && in.ok(); ++i) {
    NodeType t;
    if (!ReadType(&in, version, &t)) break;
    schema.node_types().push_back(std::move(t));
  }
  for (uint64_t i = 0; i < num_edge_types && in.ok(); ++i) {
    EdgeType t;
    if (!ReadType(&in, version, &t)) break;
    uint64_t num_endpoints = in.ReadU64();
    if (!in.SaneCount(num_endpoints, 8)) break;
    for (uint64_t e = 0; e < num_endpoints && in.ok(); ++e) {
      uint32_t src = in.ReadU32();
      uint32_t dst = in.ReadU32();
      t.endpoints.emplace(src, dst);
    }
    t.cardinality.max_out = in.ReadU64();
    t.cardinality.max_in = in.ReadU64();
    uint8_t kind = in.ReadU8();
    if (kind > static_cast<uint8_t>(CardinalityKind::kManyToMany)) {
      return util::Status::ParseError("schema binary: bad cardinality kind");
    }
    t.cardinality.kind = static_cast<CardinalityKind>(kind);
    if (!in.ok()) break;
    schema.edge_types().push_back(std::move(t));
  }
  if (!in.ok() || schema.num_node_types() != num_node_types ||
      schema.num_edge_types() != num_edge_types || !in.AtEnd()) {
    return util::Status::ParseError(
        "schema binary: truncated or trailing payload");
  }
  return schema;
}

}  // namespace pghive::core

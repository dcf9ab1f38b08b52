#include "core/serialize.h"

#include <cctype>
#include <sstream>

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
  return out;
}

std::string LabelSpec(const pg::Vocabulary& vocab,
                      const std::vector<pg::LabelId>& labels) {
  std::string out;
  for (pg::LabelId l : labels) {
    out += " & ";
    out += vocab.LabelName(l);
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
    out += vocab.KeyName(key);
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

// What a node and an edge declaration share: "[ABSTRACT ]<Name><suffix>
// [ : Labels] {props}", the part inside "( )" or "-[ ]->".
std::string TypeSpec(const pg::Vocabulary& vocab, const SchemaType& type,
                     size_t index, const char* suffix, SchemaMode mode) {
  std::string out = type.is_abstract() ? "ABSTRACT " : "";
  out += SanitizeIdentifier(type.Name(vocab, index)) + suffix;
  if (!type.labels.empty()) out += " : " + LabelSpec(vocab, type.labels);
  return out + PropertyBlock(vocab, type, mode);
}

}  // namespace

std::string SerializePgSchema(const SchemaGraph& schema,
                              const pg::Vocabulary& vocab, SchemaMode mode) {
  std::ostringstream out;
  out << "CREATE GRAPH TYPE PgHiveSchema "
      << (mode == SchemaMode::kStrict ? "STRICT" : "LOOSE") << " {\n";
  bool first = true;
  for (size_t i = 0; i < schema.node_types().size(); ++i) {
    const NodeType& t = schema.node_types()[i];
    if (!first) out << ",\n";
    first = false;
    out << "  (" << TypeSpec(vocab, t, i, "Type", mode) << ")";
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
        << TypeSpec(vocab, t, i, "EdgeType", mode) << "]->(:"
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
  // Opens a type's element and declares its properties as attributes.
  auto open_element = [&](const SchemaType& t, size_t i, const char* suffix) {
    out << "  <xs:element name=\"" << SanitizeIdentifier(t.Name(vocab, i))
        << suffix << "\">\n    <xs:complexType>\n";
    for (const auto& [key, info] : t.properties) {
      out << "      <xs:attribute name=\""
          << SanitizeIdentifier(vocab.KeyName(key)) << "\" type=\""
          << XsdTypeName(info.data_type) << "\" use=\""
          << (info.requiredness == Requiredness::kMandatory ? "required"
                                                            : "optional")
          << "\"/>\n";
    }
  };
  constexpr const char* kCloseElement =
      "    </xs:complexType>\n  </xs:element>\n";
  for (size_t i = 0; i < schema.node_types().size(); ++i) {
    open_element(schema.node_types()[i], i, "");
    out << kCloseElement;
  }
  for (size_t i = 0; i < schema.edge_types().size(); ++i) {
    const EdgeType& t = schema.edge_types()[i];
    open_element(t, i, "_edge");
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
// building any structure.

constexpr char kBinaryMagic[4] = {'P', 'G', 'H', 'B'};
constexpr uint32_t kBinaryVersion = 1;

using util::ByteReader;
using util::PutU32;
using util::PutU32Vector;
using util::PutU64;
using util::PutU64Set;
using util::PutU64Vector;
using util::PutU8;

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
  PutU64Vector(out, type.instances);
  PutU64(out, type.instance_count);
  PutU64Set(out, type.pattern_hashes);
}

// Each field stops the read immediately on a bad length prefix, so a corrupt
// early field can never let a later untrusted count through.
bool ReadType(ByteReader* in, SchemaType* type) {
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
  if (!in->ok() || !in->ReadU64Vector(&type->instances)) return false;
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

util::StatusOr<SchemaGraph> ParseSchemaBinary(const std::string& bytes) {
  ByteReader in(bytes);
  if (!in.Has(sizeof(kBinaryMagic)) ||
      bytes.compare(0, sizeof(kBinaryMagic), kBinaryMagic,
                    sizeof(kBinaryMagic)) != 0) {
    return util::Status::ParseError("schema binary: bad magic");
  }
  in.ReadBytes(sizeof(kBinaryMagic));
  uint32_t version = in.ReadU32();
  if (version != kBinaryVersion) {
    return util::Status::ParseError("schema binary: unsupported version " +
                                    std::to_string(version));
  }
  uint64_t num_node_types = in.ReadU64();
  uint64_t num_edge_types = in.ReadU64();
  SchemaGraph schema;
  for (uint64_t i = 0; i < num_node_types && in.ok(); ++i) {
    NodeType t;
    if (!ReadType(&in, &t)) break;
    schema.node_types().push_back(std::move(t));
  }
  for (uint64_t i = 0; i < num_edge_types && in.ok(); ++i) {
    EdgeType t;
    if (!ReadType(&in, &t)) break;
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

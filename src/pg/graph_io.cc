#include "pg/graph_io.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

namespace pghive::pg {

namespace {

bool IsBlank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// The character a backslash precedes to escape `c`, or '\0' when `c` is
// written as itself. A label field also escapes the label separator and the
// field-ending blanks, by a backslash before the character itself.
char EscapeFor(char c, bool label) {
  switch (c) {
    case '\\':
      return '\\';
    case ';':
      return 's';
    case '=':
      return 'e';
    case '\n':
      return 'n';
    case '|':
    case ' ':
    case '\t':
    case '\r':
      return label ? c : '\0';
    default:
      return '\0';
  }
}

// Appends `s` escaped, copying each run between escapes in one append.
void AppendEscaped(std::string* out, std::string_view s, bool label) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char escape = EscapeFor(s[i], label);
    if (escape == '\0') continue;
    out->append(s.data() + run, i - run);
    out->push_back('\\');
    out->push_back(escape);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

void AppendUnescaped(std::string* out, std::string_view s) {
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '\\' && i + 1 < s.size()) {
      switch (c = s[++i]) {
        case 's':
          c = ';';
          break;
        case 'e':
          c = '=';
          break;
        case 'n':
          c = '\n';
          break;
        default:
          break;  // Any other escaped character stands for itself.
      }
    }
    out->push_back(c);
  }
}

template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, end);
}

void AppendValue(std::string* out, const Value& value) {
  if (value.is_null()) {
    out->append("null");
  } else if (value.is_bool()) {
    out->append(value.AsBool() ? "true" : "false");
  } else if (value.is_int()) {
    AppendInt(out, value.AsInt());
  } else if (value.is_float()) {
    // Value::ToString's rendering, without its std::string.
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%g", value.AsFloat());
    out->append(buf, static_cast<size_t>(n));
  } else {
    AppendEscaped(out, value.AsString(), /*label=*/false);
  }
}

void AppendFields(std::string* out, const Vocabulary& vocab,
                  const std::vector<LabelId>& labels,
                  const PropertyMap& props) {
  if (labels.empty()) out->push_back('-');
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out->push_back('|');
    AppendEscaped(out, vocab.LabelName(labels[i]), /*label=*/true);
  }
  out->push_back(' ');
  bool first = true;
  for (const auto& [key, value] : props.entries()) {
    if (!first) out->push_back(';');
    first = false;
    AppendEscaped(out, vocab.KeyName(key), /*label=*/false);
    out->push_back('=');
    AppendValue(out, value);
  }
}

void AppendNodeLine(std::string* out, const Vocabulary& vocab,
                    const Node& node) {
  out->append("N ");
  AppendInt(out, node.id);
  out->push_back(' ');
  AppendFields(out, vocab, node.labels, node.properties);
}

void AppendEdgeLine(std::string* out, const Vocabulary& vocab,
                    const Edge& edge) {
  out->append("E ");
  AppendInt(out, edge.id);
  out->push_back(' ');
  AppendInt(out, edge.src);
  out->push_back(' ');
  AppendInt(out, edge.dst);
  out->push_back(' ');
  AppendFields(out, vocab, edge.labels, edge.properties);
}

// `field` with its escapes decoded; a view of `field` itself when it holds
// no backslash, else of `*scratch`.
std::string_view Decode(std::string_view field, std::string* scratch) {
  if (field.find('\\') == std::string_view::npos) return field;
  scratch->clear();
  AppendUnescaped(scratch, field);
  return *scratch;
}

// Pops the next run of non-blanks off `*rest`, skipping the blanks before
// it. With `escapes` (the label field), a backslash also takes the
// character after it, so an escaped blank does not end the field.
std::string_view TakeRun(std::string_view* rest, bool escapes) {
  size_t begin = 0;
  while (begin < rest->size() && IsBlank((*rest)[begin])) ++begin;
  size_t end = begin;
  while (end < rest->size() && !IsBlank((*rest)[end])) {
    end += (escapes && (*rest)[end] == '\\' && end + 1 < rest->size()) ? 2 : 1;
  }
  const std::string_view field = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return field;
}

void InternLabels(std::string_view field, Vocabulary* vocab,
                  std::vector<LabelId>* labels, std::string* scratch) {
  labels->clear();
  if (field == "-") return;
  size_t begin = 0;
  for (size_t i = 0;;) {
    if (i == field.size() || field[i] == '|') {
      const std::string_view piece = field.substr(begin, i - begin);
      if (!piece.empty()) {
        labels->push_back(vocab->InternLabel(Decode(piece, scratch)));
      }
      if (i == field.size()) break;
      begin = ++i;
    } else {
      i += (field[i] == '\\' && i + 1 < field.size()) ? 2 : 1;
    }
  }
  NormalizeLabels(labels);
}

// One probe per format: std::from_chars checks and parses in one call.
Value ParseValue(std::string_view field) {
  std::string decoded;
  const bool escaped = field.find('\\') != std::string_view::npos;
  if (escaped) AppendUnescaped(&decoded, field);
  const std::string_view s = escaped ? std::string_view(decoded) : field;
  int64_t i = 0;
  if (ParseIntegerLiteral(s, &i)) return Value(i);
  double d = 0.0;
  if (s.find_first_of(".eE") != std::string_view::npos &&
      ParseFloatLiteral(s, &d)) {
    return Value(d);
  }
  if (s == "null") return Value();
  if (s == "true") return Value(true);
  if (s == "false") return Value(false);
  return escaped ? Value(std::move(decoded)) : Value(std::string(field));
}

void ParseProperties(std::string_view field, Vocabulary* vocab,
                     PropertyMap* props, std::string* scratch) {
  size_t begin = 0;
  size_t equals = 0;  // Unescaped '=' seen in the current pair.
  size_t eq = 0;      // Position of the last of them.
  for (size_t i = 0;;) {
    if (i == field.size() || field[i] == ';') {
      if (equals == 1) {
        const std::string_view key = field.substr(begin, eq - begin);
        const PropKeyId id = vocab->InternKey(Decode(key, scratch));
        props->Set(id, ParseValue(field.substr(eq + 1, i - eq - 1)));
      }
      if (i == field.size()) break;
      begin = ++i;
      equals = 0;
    } else {
      if (field[i] == '=') {
        ++equals;
        eq = i;
      }
      i += (field[i] == '\\' && i + 1 < field.size()) ? 2 : 1;
    }
  }
}

}  // namespace

std::string EscapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(&out, s, /*label=*/false);
  return out;
}

std::string UnescapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendUnescaped(&out, s);
  return out;
}

std::string_view TakeLine(std::string_view* text) {
  const size_t newline = text->find('\n');
  const std::string_view line = text->substr(0, newline);
  text->remove_prefix(newline == std::string_view::npos ? text->size()
                                                        : newline + 1);
  return line;
}

bool ParseId(std::string_view field, uint64_t* id) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *id);
  return ec == std::errc() && ptr == end;
}

std::string_view TakeField(std::string_view* rest) {
  return TakeRun(rest, /*escapes=*/false);
}

util::Status ParseElementLine(std::string_view line, bool is_edge,
                              Vocabulary* vocab, ElementRecord* record) {
  const char* what = is_edge ? "bad edge " : "bad node ";
  auto bad = [&](const char* field) {
    return util::Status::ParseError(what + std::string(field) + ": " +
                                    std::string(line));
  };
  std::string_view rest = line;
  TakeField(&rest);  // The record kind.
  if (!ParseId(TakeField(&rest), &record->id)) return bad("id");
  if (is_edge && !ParseId(TakeField(&rest), &record->src)) return bad("src");
  if (is_edge && !ParseId(TakeField(&rest), &record->dst)) return bad("dst");
  const std::string_view labels = TakeRun(&rest, /*escapes=*/true);
  if (labels.empty()) return bad("label field");
  std::string scratch;
  InternLabels(labels, vocab, &record->labels, &scratch);

  // The properties field runs to the end of the line, less the blanks
  // around it.
  size_t begin = 0;
  while (begin < rest.size() && IsBlank(rest[begin])) ++begin;
  size_t end = rest.size();
  while (end > begin && IsBlank(rest[end - 1])) --end;
  record->properties = PropertyMap();
  ParseProperties(rest.substr(begin, end - begin), vocab, &record->properties,
                  &scratch);
  return util::Status::Ok();
}

std::string FormatNodeLine(const PropertyGraph& graph, const Node& node) {
  std::string out;
  AppendNodeLine(&out, graph.vocab(), node);
  return out;
}

std::string FormatEdgeLine(const PropertyGraph& graph, const Edge& edge) {
  std::string out;
  AppendEdgeLine(&out, graph.vocab(), edge);
  return out;
}

std::string SaveGraphText(const PropertyGraph& graph) {
  const Vocabulary& vocab = graph.vocab();
  std::string out;
  for (const Node& n : graph.nodes()) {
    AppendNodeLine(&out, vocab, n);
    out.push_back('\n');
  }
  for (const Edge& e : graph.edges()) {
    AppendEdgeLine(&out, vocab, e);
    out.push_back('\n');
  }
  return out;
}

util::Status SaveGraphFile(const PropertyGraph& graph,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::IoError("cannot open " + path);
  const std::string text = SaveGraphText(graph);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return util::Status::IoError("write failed: " + path);
  return util::Status::Ok();
}

util::StatusOr<PropertyGraph> LoadGraphText(const std::string& text) {
  PropertyGraph graph;
  ElementRecord record;
  std::string_view rest = text;
  for (size_t line_no = 1; !rest.empty(); ++line_no) {
    const std::string_view line = TakeLine(&rest);
    if (line.empty() || line[0] == '#') continue;
    auto error = [line_no](const std::string& message) {
      return util::Status::ParseError(message + ", line " +
                                      std::to_string(line_no));
    };
    std::string_view fields = line;
    const std::string_view kind = TakeField(&fields);
    if (kind != "N" && kind != "E") {
      return error("unknown record '" + std::string(kind) + "'");
    }
    const bool is_edge = kind == "E";
    util::Status parsed =
        ParseElementLine(line, is_edge, &graph.vocab(), &record);
    if (!parsed.ok()) return error(parsed.message());
    if (!is_edge) {
      if (record.id != graph.num_nodes()) {
        return error("node ids must be dense");
      }
      const NodeId id = graph.AddNodeWithLabelIds(std::move(record.labels));
      graph.node(id).properties = std::move(record.properties);
    } else {
      if (record.src >= graph.num_nodes() ||
          record.dst >= graph.num_nodes()) {
        return error("edge endpoint out of range");
      }
      if (record.id != graph.num_edges()) {
        return error("edge ids must be dense");
      }
      const EdgeId id = graph.AddEdgeWithLabelIds(
          record.src, record.dst, std::move(record.labels));
      graph.edge(id).properties = std::move(record.properties);
    }
  }
  return graph;
}

util::StatusOr<PropertyGraph> LoadGraphFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::IoError("cannot open " + path);
  std::string text;
  std::error_code size_error;
  const auto size = std::filesystem::file_size(path, size_error);
  if (!size_error) text.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  return LoadGraphText(text);
}

}  // namespace pghive::pg

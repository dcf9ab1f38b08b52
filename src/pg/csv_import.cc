#include "pg/csv_import.h"

#include <algorithm>
#include <cctype>
#include <string_view>

namespace pghive::pg {

namespace {

struct Column {
  std::string name;       // Property key ("" for control columns).
  std::string type_name;  // Declared type suffix, lowercased.
  enum Kind { kProperty, kId, kLabel, kStartId, kEndId, kType } kind = kProperty;
};

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

util::StatusOr<std::vector<Column>> ParseHeader(
    const std::vector<std::string>& header) {
  std::vector<Column> columns;
  for (const std::string& raw : header) {
    Column col;
    std::string name = raw;
    size_t colon = raw.find(':');
    std::string suffix;
    if (colon != std::string::npos) {
      name = raw.substr(0, colon);
      suffix = ToLower(raw.substr(colon + 1));
    }
    col.name = name;
    col.type_name = suffix;
    if (suffix == "id") {
      col.kind = Column::kId;
    } else if (suffix == "label") {
      col.kind = Column::kLabel;
    } else if (suffix == "start_id") {
      col.kind = Column::kStartId;
    } else if (suffix == "end_id") {
      col.kind = Column::kEndId;
    } else if (suffix == "type") {
      col.kind = Column::kType;
    } else {
      col.kind = Column::kProperty;
    }
    columns.push_back(std::move(col));
  }
  return columns;
}

std::vector<std::string> SplitLabels(const std::string& cell) {
  std::vector<std::string> labels;
  std::string cur;
  for (char c : cell) {
    if (c == ';') {
      if (!cur.empty()) labels.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) labels.push_back(std::move(cur));
  return labels;
}

}  // namespace

Value ParseCsvValue(const std::string& cell, const std::string& type_name) {
  std::string t = ToLower(type_name);
  if (t == "int" || t == "long") {
    int64_t i = 0;
    return ParseIntegerLiteral(cell, &i) ? Value(i) : Value(cell);
  }
  if (t == "float" || t == "double") {
    // Integer literals widen; words std::from_chars also reads ("inf",
    // "nan") stay text, as do literals out of range.
    double d = 0.0;
    const bool parsed =
        LooksLikeInteger(cell)
            ? ParseFloatLiteral(std::string_view(cell).substr(cell[0] == '+'),
                                &d)
            : ParseFloatLiteral(cell, &d) &&
                  cell.find_first_of(".eE") != std::string::npos;
    return parsed ? Value(d) : Value(cell);
  }
  if (t == "boolean" || t == "bool") {
    if (LooksLikeBoolean(cell)) {
      return Value(cell.size() == 4);  // "true" has 4 chars.
    }
    return Value(cell);
  }
  // date / datetime / string: carried as strings; the inference pipeline
  // recognizes temporal formats (the paper's regex path).
  return Value(cell);
}

util::Status CsvGraphImporter::AddNodeTable(const util::CsvTable& table) {
  auto columns = ParseHeader(table.header);
  if (!columns.ok()) return columns.status();
  const auto& cols = columns.value();
  int id_col = -1, label_col = -1;
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].kind == Column::kId) id_col = static_cast<int>(c);
    if (cols[c].kind == Column::kLabel) label_col = static_cast<int>(c);
  }
  if (id_col < 0) {
    return util::Status::InvalidArgument("node table needs an :ID column");
  }
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    if (row.size() < cols.size()) {
      return util::Status::ParseError("short row " + std::to_string(r + 2));
    }
    const std::string& key = row[id_col];
    if (id_map_.count(key)) {
      return util::Status::InvalidArgument("duplicate node id '" + key + "'");
    }
    std::vector<std::string> labels;
    if (label_col >= 0) labels = SplitLabels(row[label_col]);
    NodeId id = graph_.AddNode(labels);
    id_map_[key] = id;
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c].kind != Column::kProperty || row[c].empty()) continue;
      graph_.SetNodeProperty(id, cols[c].name,
                             ParseCsvValue(row[c], cols[c].type_name));
    }
  }
  return util::Status::Ok();
}

util::Status CsvGraphImporter::AddEdgeTable(const util::CsvTable& table) {
  auto columns = ParseHeader(table.header);
  if (!columns.ok()) return columns.status();
  const auto& cols = columns.value();
  int start_col = -1, end_col = -1, type_col = -1;
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].kind == Column::kStartId) start_col = static_cast<int>(c);
    if (cols[c].kind == Column::kEndId) end_col = static_cast<int>(c);
    if (cols[c].kind == Column::kType) type_col = static_cast<int>(c);
  }
  if (start_col < 0 || end_col < 0) {
    return util::Status::InvalidArgument(
        "edge table needs :START_ID and :END_ID columns");
  }
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    if (row.size() < cols.size()) {
      return util::Status::ParseError("short row " + std::to_string(r + 2));
    }
    auto src_it = id_map_.find(row[start_col]);
    auto dst_it = id_map_.find(row[end_col]);
    if (src_it == id_map_.end() || dst_it == id_map_.end()) {
      return util::Status::NotFound("unknown endpoint in edge row " +
                                    std::to_string(r + 2));
    }
    std::vector<std::string> labels;
    if (type_col >= 0 && !row[type_col].empty()) {
      labels = SplitLabels(row[type_col]);
    }
    EdgeId id = graph_.AddEdge(src_it->second, dst_it->second, labels);
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c].kind != Column::kProperty || row[c].empty()) continue;
      graph_.SetEdgeProperty(id, cols[c].name,
                             ParseCsvValue(row[c], cols[c].type_name));
    }
  }
  return util::Status::Ok();
}

util::Status CsvGraphImporter::AddNodeFile(const std::string& path) {
  auto table = util::ReadCsvFile(path);
  if (!table.ok()) return table.status();
  return AddNodeTable(table.value());
}

util::Status CsvGraphImporter::AddEdgeFile(const std::string& path) {
  auto table = util::ReadCsvFile(path);
  if (!table.ok()) return table.status();
  return AddEdgeTable(table.value());
}

PropertyGraph CsvGraphImporter::TakeGraph() {
  PropertyGraph out = std::move(graph_);
  graph_ = PropertyGraph();
  id_map_.clear();
  return out;
}

}  // namespace pghive::pg

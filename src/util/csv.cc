#include "util/csv.h"

#include <algorithm>
#include <string_view>

#include "util/file_io.h"

namespace pghive::util {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      out.push_back(std::move(cur));
      cur.clear();
    } else if (c == '\r') {
      // Skip CR in CRLF files.
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(std::move(cur));
  return out;
}

StatusOr<CsvTable> ReadCsvFile(const std::string& path) {
  auto bytes = ReadWholeFile(path);
  if (!bytes.ok()) {
    // A file that cannot be opened is an I/O error like one that cannot be
    // read (a directory).
    return Status::IoError(bytes.status().message());
  }
  CsvTable table;
  bool first = true;
  std::string_view rest = *bytes;
  while (!rest.empty()) {
    const size_t end = std::min(rest.find('\n'), rest.size());
    const std::string line(rest.substr(0, end));
    rest.remove_prefix(std::min(end + 1, rest.size()));
    if (line.empty()) continue;
    auto fields = SplitCsvLine(line);
    if (first) {
      table.header = std::move(fields);
      first = false;
    } else {
      table.rows.push_back(std::move(fields));
    }
  }
  if (first) return Status::ParseError("empty CSV file: " + path);
  return table;
}

}  // namespace pghive::util

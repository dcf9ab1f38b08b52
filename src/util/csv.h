#ifndef PGHIVE_UTIL_CSV_H_
#define PGHIVE_UTIL_CSV_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace pghive::util {

/// Splits one CSV line honoring double-quote escaping ("" inside quotes).
std::vector<std::string> SplitCsvLine(const std::string& line);

/// A fully-parsed CSV file: the header row plus data rows.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Reads an entire CSV file through ReadWholeFile; the first non-empty line
/// is the header. IoError naming the path when the file cannot be opened or
/// read (a directory), ParseError when it holds no line.
StatusOr<CsvTable> ReadCsvFile(const std::string& path);

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_CSV_H_

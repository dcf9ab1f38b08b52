#include "pg/value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace pghive::pg {

namespace {

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInteger:
      return "INTEGER";
    case DataType::kFloat:
      return "FLOAT";
    case DataType::kBoolean:
      return "BOOLEAN";
    case DataType::kDate:
      return "DATE";
    case DataType::kDateTime:
      return "TIMESTAMP";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

DataType JoinDataTypes(DataType a, DataType b) {
  if (a == b) return a;
  if (a == DataType::kNull) return b;
  if (b == DataType::kNull) return a;
  auto is_numeric = [](DataType t) {
    return t == DataType::kInteger || t == DataType::kFloat;
  };
  if (is_numeric(a) && is_numeric(b)) return DataType::kFloat;
  auto is_temporal = [](DataType t) {
    return t == DataType::kDate || t == DataType::kDateTime;
  };
  if (is_temporal(a) && is_temporal(b)) return DataType::kDateTime;
  return DataType::kString;
}

bool LooksLikeInteger(std::string_view s) {
  if (s.empty()) return false;
  size_t i = (s[0] == '+' || s[0] == '-') ? 1 : 0;
  if (i >= s.size()) return false;
  return AllDigits(s.substr(i));
}

bool LooksLikeFloat(std::string_view s) {
  double out = 0.0;
  if (!ParseFloatLiteral(s, &out)) return false;
  // Must contain a '.' 'e' or 'E' to be distinct from an integer literal.
  return s.find_first_of(".eE") != std::string_view::npos;
}

bool ParseIntegerLiteral(std::string_view s, int64_t* out) {
  // from_chars takes no '+'; skip one only where a digit follows, so "+-1"
  // stays text.
  if (s.size() > 1 && s[0] == '+' &&
      std::isdigit(static_cast<unsigned char>(s[1]))) {
    s.remove_prefix(1);
  }
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseFloatLiteral(std::string_view s, double* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool LooksLikeBoolean(std::string_view s) {
  return EqualsIgnoreCase(s, "true") || EqualsIgnoreCase(s, "false");
}

bool LooksLikeDate(std::string_view s) {
  // ISO-8601: YYYY-MM-DD.
  if (s.size() == 10 && s[4] == '-' && s[7] == '-' &&
      AllDigits(s.substr(0, 4)) && AllDigits(s.substr(5, 2)) &&
      AllDigits(s.substr(8, 2))) {
    return true;
  }
  // D/M/YYYY or DD/MM/YYYY (the paper's "19/12/1999").
  size_t first = s.find('/');
  if (first == std::string_view::npos || first == 0 || first > 2) return false;
  size_t second = s.find('/', first + 1);
  if (second == std::string_view::npos) return false;
  size_t mid_len = second - first - 1;
  if (mid_len == 0 || mid_len > 2) return false;
  std::string_view year = s.substr(second + 1);
  if (year.size() != 4) return false;
  return AllDigits(s.substr(0, first)) &&
         AllDigits(s.substr(first + 1, mid_len)) && AllDigits(year);
}

bool LooksLikeDateTime(std::string_view s) {
  // YYYY-MM-DDTHH:MM:SS with optional suffix (fraction / zone).
  if (s.size() < 19) return false;
  if (!LooksLikeDate(s.substr(0, 10))) return false;
  if (s[10] != 'T' && s[10] != ' ') return false;
  return AllDigits(s.substr(11, 2)) && s[13] == ':' &&
         AllDigits(s.substr(14, 2)) && s[16] == ':' &&
         AllDigits(s.substr(17, 2));
}

DataType Value::InferType() const {
  if (is_null()) return DataType::kNull;
  if (is_bool()) return DataType::kBoolean;
  if (is_int()) return DataType::kInteger;
  if (is_float()) return DataType::kFloat;
  const std::string& s = AsString();
  // Priority-based inference (§4.4): numeric first, then boolean, then
  // temporal formats, defaulting to string.
  if (LooksLikeInteger(s)) return DataType::kInteger;
  if (LooksLikeFloat(s)) return DataType::kFloat;
  if (LooksLikeBoolean(s)) return DataType::kBoolean;
  if (LooksLikeDateTime(s)) return DataType::kDateTime;
  if (LooksLikeDate(s)) return DataType::kDate;
  return DataType::kString;
}

std::string Value::ToString() const {
  if (is_null()) return "null";
  if (is_bool()) return AsBool() ? "true" : "false";
  if (is_int()) return std::to_string(AsInt());
  if (is_float()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", AsFloat());
    return buf;
  }
  return AsString();
}

}  // namespace pghive::pg

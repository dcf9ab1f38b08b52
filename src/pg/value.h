#ifndef PGHIVE_PG_VALUE_H_
#define PGHIVE_PG_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace pghive::pg {

/// Property data types, ordered by the paper's priority-based inference
/// hierarchy (§4.4): INTEGER > FLOAT > BOOLEAN > DATE/DATETIME > STRING.
enum class DataType : uint8_t {
  kNull = 0,
  kInteger,
  kFloat,
  kBoolean,
  kDate,
  kDateTime,
  kString,
};

/// Name used in schema serialization ("INTEGER", "STRING", ...).
const char* DataTypeName(DataType t);

/// The least general type that covers both operands, used when generalizing
/// a property's type over many observed values:
///   - equal types join to themselves;
///   - INTEGER ∨ FLOAT = FLOAT;
///   - DATE ∨ DATETIME = DATETIME;
///   - anything else falls back to STRING (the paper's default).
DataType JoinDataTypes(DataType a, DataType b);

/// A property value: null, boolean, integer, float or string. Dates are
/// carried as strings and recognized by format, mirroring how values arrive
/// from a property-graph store export.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(bool b) : data_(b) {}
  explicit Value(int64_t i) : data_(i) {}
  explicit Value(double d) : data_(d) {}
  explicit Value(std::string s) : data_(std::move(s)) {}
  explicit Value(const char* s) : data_(std::string(s)) {}

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_float() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsFloat() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Infers the most specific data type of this single value, following the
  /// paper's hierarchy. String payloads are probed: integer literal, float
  /// literal, boolean literal, ISO date / datetime, else STRING.
  DataType InferType() const;

  /// Human-readable rendering (used by graph I/O and examples).
  std::string ToString() const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// True if `s` is an ISO-8601 date (YYYY-MM-DD) or the common D/M/YYYY and
/// DD/MM/YYYY forms seen in the paper's running example.
bool LooksLikeDate(std::string_view s);

/// True if `s` is an ISO-8601 datetime (YYYY-MM-DDTHH:MM:SS, optional zone).
bool LooksLikeDateTime(std::string_view s);

/// True if `s` parses entirely as a (signed) decimal integer.
bool LooksLikeInteger(std::string_view s);

/// True if `s` parses entirely as a floating-point literal with a '.' or
/// exponent (pure integers are not floats).
bool LooksLikeFloat(std::string_view s);

/// True if `s` is "true" or "false" (case-insensitive).
bool LooksLikeBoolean(std::string_view s);

/// Parses all of `s` as a decimal integer: an optional '+' or '-', then
/// digits. False, leaving `*out` alone, for any other text and for a literal
/// outside the int64_t range.
bool ParseIntegerLiteral(std::string_view s, int64_t* out);

/// Parses all of `s` as a floating-point literal, as std::from_chars reads
/// one (so no leading '+'). False, leaving `*out` alone, for any other text
/// and for a literal outside the double range.
bool ParseFloatLiteral(std::string_view s, double* out);

}  // namespace pghive::pg

#endif  // PGHIVE_PG_VALUE_H_

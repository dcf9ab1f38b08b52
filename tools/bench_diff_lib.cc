#include "tools/bench_diff_lib.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>

namespace pghive::tools {

namespace {

// ---- Minimal JSON reader ------------------------------------------------
//
// Just enough of RFC 8259 for the speedup sweep artifact: objects,
// arrays, strings (common escapes), numbers, true/false/null. No external
// dependency, fails soft (parse error -> empty result + message).

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipWhitespace();
    return ok && pos_ == text_.size();
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        return ParseLiteral(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return Fail("expected '{'");
    if (Consume('}')) return true;
    for (;;) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return Fail("expected '['");
    if (Consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("dangling escape");
      char esc = text_[pos_++];
      switch (esc) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u':
          // Benchmark names are ASCII; keep a placeholder for exotic input.
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          pos_ += 4;
          out->push_back('?');
          break;
        default: out->push_back(esc); break;
      }
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // Closing quote.
    return true;
  }

  bool ParseLiteral(JsonValue* out) {
    auto match = [&](const char* word) {
      size_t len = std::char_traits<char>::length(word);
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (match("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return Fail("unknown literal");
  }

  bool ParseNumber(JsonValue* out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    double value = std::strtod(start, &end);
    if (end == start) return Fail("expected number");
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

// ---- Sweep extraction ---------------------------------------------------

bool ExtractSweepStages(const JsonValue& root, std::vector<BenchEntry>* out,
                        std::string* error) {
  const JsonValue* stages = root.Get("stages");
  for (const JsonValue& stage : stages->array) {
    const JsonValue* name = stage.Get("stage");
    const JsonValue* results = stage.Get("results");
    if (name == nullptr || results == nullptr) {
      *error = "stage entry missing 'stage' or 'results'";
      return false;
    }
    for (const JsonValue& result : results->array) {
      const JsonValue* threads = result.Get("threads");
      const JsonValue* speedup = result.Get("speedup");
      if (threads == nullptr || speedup == nullptr) {
        *error = "result entry missing 'threads' or 'speedup'";
        return false;
      }
      out->push_back(
          {name->string + "/threads=" +
               std::to_string(static_cast<long long>(threads->number)),
           speedup->number});
    }
  }
  return true;
}

}  // namespace

util::StatusOr<std::vector<BenchEntry>> ParseBenchJson(
    const std::string& text) {
  JsonValue root;
  JsonParser parser(text);
  if (!parser.Parse(&root)) {
    return util::Status::ParseError("JSON parse error: " + parser.error());
  }
  if (root.Get("stages") == nullptr) {
    return util::Status::ParseError(
        "unrecognized bench JSON: no 'stages' key (not a speedup sweep)");
  }
  std::vector<BenchEntry> entries;
  std::string error;
  if (!ExtractSweepStages(root, &entries, &error)) {
    return util::Status::ParseError(error);
  }
  return entries;
}

std::vector<DiffRow> DiffEntries(const std::vector<BenchEntry>& baseline,
                                 const std::vector<BenchEntry>& current) {
  std::unordered_map<std::string, const BenchEntry*> current_by_name;
  current_by_name.reserve(current.size());
  for (const BenchEntry& entry : current) current_by_name[entry.name] = &entry;
  std::vector<DiffRow> rows;
  for (const BenchEntry& base : baseline) {
    auto it = current_by_name.find(base.name);
    if (it == current_by_name.end()) continue;
    const BenchEntry& cur = *it->second;
    DiffRow row;
    row.name = base.name;
    if (base.speedup > 0 && cur.speedup > 0) {
      row.base_speedup = base.speedup;
      row.cur_speedup = cur.speedup;
      row.speedup_drop_pct =
          (base.speedup - cur.speedup) / base.speedup * 100.0;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

bool IsRegression(const DiffRow& row, double threshold_pct) {
  return row.base_speedup > 0 && row.speedup_drop_pct > threshold_pct;
}

bool AnyRegression(const std::vector<DiffRow>& rows, double threshold_pct) {
  for (const DiffRow& row : rows) {
    if (IsRegression(row, threshold_pct)) return true;
  }
  return false;
}

std::vector<std::string> RegressedNames(const std::vector<DiffRow>& rows,
                                        double threshold_pct) {
  std::vector<std::string> names;
  for (const DiffRow& row : rows) {
    if (IsRegression(row, threshold_pct)) names.push_back(row.name);
  }
  return names;
}

std::vector<std::string> ConsecutiveRegressions(
    const std::vector<std::string>& regressed_now,
    const std::vector<std::string>& prior) {
  std::vector<std::string> failures;
  for (const std::string& name : regressed_now) {
    if (std::find(prior.begin(), prior.end(), name) != prior.end()) {
      failures.push_back(name);
    }
  }
  return failures;
}

std::string MarkdownTable(const std::vector<DiffRow>& rows,
                          double threshold_pct,
                          const std::vector<std::string>* prior) {
  std::string out =
      "| benchmark | baseline speedup | current speedup | drop "
      "| status |\n|---|---:|---:|---:|:---|\n";
  char buf[96];
  for (const DiffRow& row : rows) {
    std::snprintf(buf, sizeof(buf), " | %.2fx | %.2fx | %+.1f%% | ",
                  row.base_speedup, row.cur_speedup, row.speedup_drop_pct);
    const char* status = "✅ ok";
    if (IsRegression(row, threshold_pct)) {
      if (prior == nullptr) {
        status = "❌ regression";
      } else if (std::find(prior->begin(), prior->end(), row.name) !=
                 prior->end()) {
        status = "❌ regression (2nd consecutive run)";
      } else {
        status = "⚠️ warn (first trip)";
      }
    }
    out += "| " + row.name + buf + status + " |\n";
  }
  if (rows.empty()) out += "| _no comparable entries_ | | | | |\n";
  return out;
}

}  // namespace pghive::tools

#include "core/pgschema_parser.h"

#include <cctype>
#include <cstring>
#include <limits>

namespace pghive::core {

namespace {

// A small hand-rolled recursive-descent tokenizer/parser for the dialect.
class Parser {
 public:
  Parser(const std::string& text, pg::Vocabulary* vocab)
      : text_(text), vocab_(vocab) {}

  util::StatusOr<SchemaGraph> Parse() {
    SkipSpace();
    if (!ConsumeWord("CREATE") || !ConsumeWord("GRAPH") ||
        !ConsumeWord("TYPE")) {
      return Error("expected CREATE GRAPH TYPE");
    }
    (void)Identifier();  // Schema name.
    mode_strict_ = ConsumeWord("STRICT");
    if (!mode_strict_) ConsumeWord("LOOSE");
    if (!Consume('{')) return Error("expected '{'");

    SchemaGraph schema;
    for (;;) {
      SkipSpace();
      if (Consume('}')) break;
      if (AtEnd()) return Error("unexpected end of input");
      util::Status status = ParseElement(&schema);
      if (!status.ok()) return status;
      SkipSpace();
      Consume(',');
    }
    return schema;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }

  void SkipSpace() {
    for (;;) {
      while (!AtEnd() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      // Skip /* ... */ comments (cardinality annotations).
      if (pos_ + 1 < text_.size() && text_[pos_] == '/' &&
          text_[pos_ + 1] == '*') {
        size_t end = text_.find("*/", pos_ + 2);
        if (end == std::string::npos) {
          pos_ = text_.size();
          return;
        }
        // Remember the annotation body for the current edge type.
        last_comment_ = text_.substr(pos_ + 2, end - pos_ - 2);
        pos_ = end + 2;
        continue;
      }
      return;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (!AtEnd() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool PeekIs(char c) {
    SkipSpace();
    return !AtEnd() && text_[pos_] == c;
  }

  std::string Identifier() {
    SkipSpace();
    size_t start = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                        text_[pos_] == '_' || text_[pos_] == '#' ||
                        text_[pos_] == '|' || text_[pos_] == '.')) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  bool ConsumeWord(const char* word) {
    SkipSpace();
    size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      size_t after = pos_ + len;
      if (after >= text_.size() ||
          !std::isalnum(static_cast<unsigned char>(text_[after]))) {
        pos_ = after;
        return true;
      }
    }
    return false;
  }

  util::Status Error(const std::string& message) {
    return util::Status::ParseError(message + " at offset " +
                                    std::to_string(pos_));
  }

  // Parses "Label & Label2" into interned ids.
  std::vector<pg::LabelId> ParseLabelSpec() {
    std::vector<pg::LabelId> labels;
    for (;;) {
      std::string name = Identifier();
      if (name.empty()) break;
      labels.push_back(vocab_->InternLabel(name));
      if (!Consume('&')) break;
    }
    pg::NormalizeLabels(&labels);
    return labels;
  }

  // Parses "{k TYPE, OPTIONAL k2 TYPE, OPEN}" into a property map.
  util::Status ParsePropertyBlock(
      std::map<pg::PropKeyId, PropertyInfo>* props) {
    if (!Consume('{')) return util::Status::Ok();  // No properties.
    for (;;) {
      SkipSpace();
      if (Consume('}')) return util::Status::Ok();
      if (AtEnd()) return Error("unterminated property block");
      bool optional = ConsumeWord("OPTIONAL");
      if (ConsumeWord("OPEN")) {
        Consume(',');
        continue;
      }
      std::string key = Identifier();
      if (key.empty()) return Error("expected property key");
      PropertyInfo info;
      info.requiredness =
          optional ? Requiredness::kOptional : Requiredness::kMandatory;
      info.count = optional ? 0 : 1;
      // Optional data type token.
      for (pg::DataType t :
           {pg::DataType::kInteger, pg::DataType::kFloat,
            pg::DataType::kBoolean, pg::DataType::kDate,
            pg::DataType::kDateTime, pg::DataType::kString}) {
        if (ConsumeWord(pg::DataTypeName(t))) {
          info.data_type = t;
          break;
        }
      }
      (*props)[vocab_->InternKey(key)] = info;
      Consume(',');
    }
  }

  // What a node and an edge declaration share: "[ABSTRACT] TypeName
  // [: Labels] [{props}]". The text carries no evidence, so the type counts
  // as one instance (and ParsePropertyBlock each MANDATORY property as
  // present in it), which re-inference reads as MANDATORY again.
  util::Status ParseTypeBody(SchemaType* type) {
    (void)ConsumeWord("ABSTRACT");
    (void)Identifier();  // Type name.
    if (Consume(':')) type->labels = ParseLabelSpec();
    type->instance_count = 1;
    return ParsePropertyBlock(&type->properties);
  }

  // Elements: "(TypeName : Labels {props})" or
  // "(:SrcType)-[TypeName : Labels {props}]->(:DstType)".
  util::Status ParseElement(SchemaGraph* schema) {
    if (!Consume('(')) return Error("expected '('");
    if (PeekIs(':')) {
      // Edge element: "(:Src | Src2)-[...]->(:Dst)".
      Consume(':');
      // Source endpoint type names (ignored for reconstruction beyond
      // existence; endpoints re-derive from names below).
      std::vector<std::string> src_names;
      for (;;) {
        std::string n = Identifier();
        if (n.empty()) break;
        src_names.push_back(n);
        if (!Consume('|')) break;
      }
      if (!Consume(')')) return Error("expected ')' after source");
      if (!Consume('-') || !Consume('[')) return Error("expected '-['");
      EdgeType edge;
      util::Status status = ParseTypeBody(&edge);
      if (!status.ok()) return status;
      if (!Consume(']') || !Consume('-') || !Consume('>')) {
        return Error("expected ']->'");
      }
      if (!Consume('(') || !Consume(':')) return Error("expected '(:'");
      for (;;) {
        std::string n = Identifier();
        if (n.empty()) break;
        if (!Consume('|')) break;
      }
      if (!Consume(')')) return Error("expected ')' after target");
      last_comment_.clear();
      SkipSpace();  // May capture the cardinality comment.
      if (!last_comment_.empty()) {
        std::string c = last_comment_;
        // Trim.
        while (!c.empty() && c.front() == ' ') c.erase(c.begin());
        while (!c.empty() && c.back() == ' ') c.pop_back();
        if (c == "1:1") edge.cardinality.kind = CardinalityKind::kOneToOne;
        if (c == "N:1") edge.cardinality.kind = CardinalityKind::kManyToOne;
        if (c == "1:N") edge.cardinality.kind = CardinalityKind::kOneToMany;
        if (c == "M:N") edge.cardinality.kind = CardinalityKind::kManyToMany;
        // The text only records the class, not the observed maxima — restore
        // the bounds the class implies ("1" sides cap at one, "N"/"M" sides
        // are unbounded) so STRICT validation of a parsed schema enforces
        // the declared class instead of the zero-initialized maxima.
        constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();
        switch (edge.cardinality.kind) {
          case CardinalityKind::kOneToOne:
            edge.cardinality.max_out = 1;
            edge.cardinality.max_in = 1;
            break;
          case CardinalityKind::kManyToOne:  // Many sources per target.
            edge.cardinality.max_out = 1;
            edge.cardinality.max_in = kUnbounded;
            break;
          case CardinalityKind::kOneToMany:  // Many targets per source.
            edge.cardinality.max_out = kUnbounded;
            edge.cardinality.max_in = 1;
            break;
          case CardinalityKind::kManyToMany:
            edge.cardinality.max_out = kUnbounded;
            edge.cardinality.max_in = kUnbounded;
            break;
          case CardinalityKind::kUnknown:
            break;
        }
      }
      schema->edge_types().push_back(std::move(edge));
      return util::Status::Ok();
    }

    // Node element.
    NodeType node;
    util::Status status = ParseTypeBody(&node);
    if (!status.ok()) return status;
    if (!Consume(')')) return Error("expected ')'");
    schema->node_types().push_back(std::move(node));
    return util::Status::Ok();
  }

  const std::string& text_;
  pg::Vocabulary* vocab_;
  size_t pos_ = 0;
  bool mode_strict_ = false;
  std::string last_comment_;
};

}  // namespace

util::StatusOr<SchemaGraph> ParsePgSchema(const std::string& text,
                                        pg::Vocabulary* vocab) {
  PGHIVE_CHECK(vocab != nullptr);
  Parser parser(text, vocab);
  return parser.Parse();
}

}  // namespace pghive::core

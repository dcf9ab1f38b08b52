#ifndef PGHIVE_PG_GRAPH_IO_H_
#define PGHIVE_PG_GRAPH_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pg/graph.h"
#include "util/status.h"

namespace pghive::pg {

// Graph text: a property graph as one record per line, written by
// SaveGraphText and read by LoadGraphText in one pass each.
//
//   N <id> <labels> <props>
//   E <id> <src> <dst> <labels> <props>
//
// - Lines end with '\n'; a trailing '\r' is dropped, so CRLF files read the
//   same. Empty lines and lines starting with '#' are skipped.
// - Fields are separated by blanks (space, tab, CR). The record kind and
//   the numeric fields hold no escapes.
// - <id>, <src>, <dst>: unsigned decimal digits and nothing else. Node ids
//   count 0, 1, 2, ... in file order, edge ids likewise, and an edge's
//   endpoints name nodes already read.
// - <labels>: "-" for none, else the labels joined by '|'; empty pieces are
//   skipped. Escapes: '\' ';' '=' and newline become "\\" "\s" "\e" "\n"
//   (EscapeField), and '|', space, tab and CR get a backslash before them.
//   A backslash takes the character after it, so a label may hold any
//   byte.
// - <props>: everything from the first non-blank after <labels> to the end
//   of the line, less trailing blanks: key=value pairs joined by ';'. Keys
//   and values use EscapeField only, so they may hold blanks and '|', but
//   the field cannot begin or end with a blank. A pair without exactly one
//   unescaped '=' is skipped; a repeated key keeps its last value.
// - Values are written as Value::ToString renders them and read back by
//   probing, in order: an integer literal (optional sign, digits) within
//   int64_t, a float literal holding '.', 'e' or 'E', "null", "true",
//   "false". Anything else is a string holding its text, including an
//   integer literal out of range.

/// One parsed node or edge record, resolved against a vocabulary.
struct ElementRecord {
  uint64_t id = 0;
  uint64_t src = 0;  ///< Edges only.
  uint64_t dst = 0;  ///< Edges only.
  std::vector<LabelId> labels;  ///< Sorted, deduplicated (as Node::labels).
  PropertyMap properties;
};

/// Pops the next line off the front of `*text`, without its '\n'.
std::string_view TakeLine(std::string_view* text);

/// Pops the next blank-delimited field off the front of `*rest`, skipping
/// the blanks before it. Empty when no field is left. The first field of a
/// line is its record kind.
std::string_view TakeField(std::string_view* rest);

/// Parses a numeric field: all of `field` as unsigned decimal digits, with
/// no sign or blanks. False on anything else, including overflow.
bool ParseId(std::string_view field, uint64_t* id);

/// Parses one record line whose kind (its first field) the caller has
/// already matched: a node record, or an edge record when `is_edge`. Labels
/// and then property keys are interned into `vocab` left to right as they
/// are read; a skipped label piece or property pair interns nothing. A
/// malformed line is a ParseError, possibly after some names were interned.
util::Status ParseElementLine(std::string_view line, bool is_edge,
                              Vocabulary* vocab, ElementRecord* record);

/// Renders one node / edge of `graph` as its graph-text line (no trailing
/// newline) — the record-level inverse of ParseElementLine.
std::string FormatNodeLine(const PropertyGraph& graph, const Node& node);
std::string FormatEdgeLine(const PropertyGraph& graph, const Edge& edge);

/// Escaping used for property fields: '\\' ';' '=' '\n' become "\\\\" "\\s"
/// "\\e" "\\n" so records survive line-oriented transports. UnescapeField
/// also decodes a backslash before any other character to that character.
std::string EscapeField(std::string_view s);
std::string UnescapeField(std::string_view s);

/// Serializes a property graph to graph text (see above).
std::string SaveGraphText(const PropertyGraph& graph);

/// Writes SaveGraphText output to a file.
util::Status SaveGraphFile(const PropertyGraph& graph,
                           const std::string& path);

/// Parses graph text.
util::StatusOr<PropertyGraph> LoadGraphText(const std::string& text);

/// Reads a file written by SaveGraphFile.
util::StatusOr<PropertyGraph> LoadGraphFile(const std::string& path);

}  // namespace pghive::pg

#endif  // PGHIVE_PG_GRAPH_IO_H_

#include "service/assembler.h"

#include <utility>

#include "pg/graph_io.h"

namespace pghive::service {

namespace {

/// Hard ceiling on the element counts a G header may declare. The header
/// pre-sizes the graph with placeholders, so an unchecked count would let a
/// one-line request allocate unbounded memory; 2^28 elements is far above
/// any real dataset while keeping the worst-case placeholder allocation in
/// the low gigabytes.
constexpr uint64_t kMaxDeclaredElements = uint64_t{1} << 28;

}  // namespace

util::Status GraphAssembler::ApplyPayload(std::string_view payload,
                                          pg::GraphBatch* batch) {
  // One record per payload, so its parse cache lives only as long as this
  // parse of graph_'s vocabulary.
  pg::ElementRecord record;
  std::string_view rest = payload;
  while (!rest.empty()) {
    const std::string_view line = pg::TakeLine(&rest);
    if (line.empty() || line[0] == '#') continue;
    util::Status status = ApplyLine(line, &record, batch);
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

util::Status GraphAssembler::ApplyLine(std::string_view line,
                                       pg::ElementRecord* record,
                                       pg::GraphBatch* batch) {
  // Every record kind is one character at the start of the line.
  std::string_view fields = line;
  if (pg::TakeField(&fields).size() == 1) {
    switch (line[0]) {
      case 'G':
        return ApplyHeader(line, fields);
      case 'V':
        return ApplyVocab(line);
      case 'N':
        return MaterializeNode(line, /*member=*/true, record, batch);
      case 'R':
        return MaterializeNode(line, /*member=*/false, record, batch);
      case 'M': {
        uint64_t id = 0;
        if (!pg::ParseId(pg::TakeField(&fields), &id) ||
            !pg::TakeField(&fields).empty()) {
          return util::Status::ParseError("bad member line '" +
                                          std::string(line) + "'");
        }
        if (id >= node_filled_.size() || !node_filled_[id]) {
          return util::Status::ParseError(
              "member marker for unmaterialized node " + std::to_string(id));
        }
        batch->node_ids.push_back(id);
        return util::Status::Ok();
      }
      case 'E':
        return MaterializeEdge(line, record, batch);
      default:
        break;
    }
  }
  return util::Status::ParseError("unknown ingest record '" +
                                  std::string(line) + "'");
}

util::Status GraphAssembler::ApplyHeader(std::string_view line,
                                         std::string_view fields) {
  if (sized_) {
    return util::Status::FailedPrecondition("duplicate G header");
  }
  if (graph_->num_nodes() != 0 || graph_->num_edges() != 0) {
    return util::Status::FailedPrecondition("G header on a non-empty graph");
  }
  // "G <num_nodes> [<num_edges>]".
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  const bool nodes_ok = pg::ParseId(pg::TakeField(&fields), &num_nodes);
  const std::string_view edges = pg::TakeField(&fields);
  if (!nodes_ok || (!edges.empty() && !pg::ParseId(edges, &num_edges)) ||
      !pg::TakeField(&fields).empty()) {
    return util::Status::ParseError("bad G header '" + std::string(line) +
                                    "'");
  }
  if (num_edges > 0 && num_nodes == 0) {
    return util::Status::ParseError("edges declared on a node-less graph");
  }
  if (num_nodes > kMaxDeclaredElements || num_edges > kMaxDeclaredElements) {
    return util::Status::OutOfRange(
        "G header declares " + std::to_string(num_nodes) + " nodes / " +
        std::to_string(num_edges) + " edges; the limit is " +
        std::to_string(kMaxDeclaredElements) + " each");
  }
  // Placeholders give the graph its final shape up front: dense ids and the
  // same num_nodes()/num_edges() the one-shot run sees from batch 1 on.
  for (uint64_t i = 0; i < num_nodes; ++i) {
    graph_->AddNodeWithLabelIds({});
  }
  for (uint64_t i = 0; i < num_edges; ++i) {
    graph_->AddEdgeWithLabelIds(0, 0, {});
  }
  node_filled_.assign(num_nodes, false);
  edge_filled_.assign(num_edges, false);
  sized_ = true;
  return util::Status::Ok();
}

util::Status GraphAssembler::ApplyVocab(std::string_view line) {
  // "V L <name>" / "V K <name>"; the name is the rest of the line, unescaped,
  // so label names with spaces survive.
  if (line.size() < 5 || line[1] != ' ' || line[3] != ' ' ||
      (line[2] != 'L' && line[2] != 'K')) {
    return util::Status::ParseError("bad vocab line '" + std::string(line) +
                                    "'");
  }
  const std::string name = pg::UnescapeField(line.substr(4));
  if (line[2] == 'L') {
    graph_->vocab().InternLabel(name);
  } else {
    graph_->vocab().InternKey(name);
  }
  return util::Status::Ok();
}

util::Status GraphAssembler::MaterializeNode(std::string_view line,
                                             bool member,
                                             pg::ElementRecord* record,
                                             pg::GraphBatch* batch) {
  if (!sized_) {
    return util::Status::FailedPrecondition(
        "node record before the G header");
  }
  // R lines share the node-line shape; the parser skips the kind.
  util::Status parsed = pg::ParseElementLine(line, /*is_edge=*/false,
                                             &graph_->vocab(), record);
  if (!parsed.ok()) return parsed;
  if (record->id >= node_filled_.size()) {
    return util::Status::OutOfRange("node id " + std::to_string(record->id) +
                                    " outside the declared graph");
  }
  if (node_filled_[record->id]) {
    return util::Status::FailedPrecondition(
        "node " + std::to_string(record->id) + " materialized twice");
  }
  pg::Node& node = graph_->node(record->id);
  node.labels = std::move(record->labels);
  node.properties = std::move(record->properties);
  node_filled_[record->id] = true;
  ++nodes_filled_;
  if (member) batch->node_ids.push_back(record->id);
  return util::Status::Ok();
}

util::Status GraphAssembler::MaterializeEdge(std::string_view line,
                                             pg::ElementRecord* record,
                                             pg::GraphBatch* batch) {
  if (!sized_) {
    return util::Status::FailedPrecondition(
        "edge record before the G header");
  }
  util::Status parsed = pg::ParseElementLine(line, /*is_edge=*/true,
                                             &graph_->vocab(), record);
  if (!parsed.ok()) return parsed;
  if (record->id >= edge_filled_.size()) {
    return util::Status::OutOfRange("edge id " + std::to_string(record->id) +
                                    " outside the declared graph");
  }
  if (edge_filled_[record->id]) {
    return util::Status::FailedPrecondition(
        "edge " + std::to_string(record->id) + " materialized twice");
  }
  if (record->src >= node_filled_.size() ||
      record->dst >= node_filled_.size()) {
    return util::Status::OutOfRange("edge endpoint outside the graph");
  }
  if (!node_filled_[record->src] || !node_filled_[record->dst]) {
    // Discovery embeds endpoint labels when it processes the edge, so an
    // unmaterialized endpoint would silently change the schema. The client
    // always sends R records first; reaching this means a broken client.
    return util::Status::FailedPrecondition(
        "edge " + std::to_string(record->id) +
        " references an unmaterialized endpoint");
  }
  pg::Edge& edge = graph_->edge(record->id);
  edge.src = record->src;
  edge.dst = record->dst;
  edge.labels = std::move(record->labels);
  edge.properties = std::move(record->properties);
  edge_filled_[record->id] = true;
  ++edges_filled_;
  batch->edge_ids.push_back(record->id);
  return util::Status::Ok();
}

util::Status GraphAssembler::CheckComplete() const {
  if (!sized_) {
    return util::Status::FailedPrecondition("no batches were ingested");
  }
  if (nodes_filled_ != node_filled_.size() ||
      edges_filled_ != edge_filled_.size()) {
    return util::Status::FailedPrecondition(
        "stream ended with unmaterialized elements: " +
        std::to_string(node_filled_.size() - nodes_filled_) + " nodes, " +
        std::to_string(edge_filled_.size() - edges_filled_) + " edges");
  }
  return util::Status::Ok();
}

}  // namespace pghive::service

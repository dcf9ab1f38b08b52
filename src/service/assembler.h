#ifndef PGHIVE_SERVICE_ASSEMBLER_H_
#define PGHIVE_SERVICE_ASSEMBLER_H_

#include <string>
#include <string_view>
#include <vector>

#include "pg/batch.h"
#include "pg/graph.h"
#include "pg/graph_io.h"
#include "util/status.h"

namespace pghive::service {

/// Rebuilds a PropertyGraph incrementally from pghived ingest payloads such
/// that after the last batch the graph is byte-for-byte the one the one-shot
/// CLI would have loaded: same dense ids, same label/key intern order, same
/// property values. That identity is what makes a streamed discovery run
/// reproduce the one-shot schema exactly (the label/key id permutation feeds
/// the feature layout, which feeds the LSH hashes).
///
/// Payload grammar (line-oriented; fields escaped as in pg graph text):
///
///   G <num_nodes> <num_edges>   pre-size the graph (first line, batch 1)
///   V L <label> / V K <key>     vocabulary preamble in one-shot intern order
///   N <id> <labels> <props>     materialize node; member of this batch
///   R <id> <labels> <props>     materialize node; NOT a member (an endpoint
///                               of an early edge, sent ahead of its batch)
///   M <id>                      mark an already-materialized node a member
///   E <id> <src> <dst> ...      materialize edge; member of this batch
///
/// The G header materializes every element as a placeholder (empty labels,
/// 0/0 endpoints) so ids are dense from the start and graph-global sizes
/// match the one-shot run; placeholders are never read before their record
/// arrives because discovery only touches batch members and their endpoints,
/// and the client materializes endpoints (R lines) before edges that use
/// them. CheckComplete() verifies no placeholder survived the stream.
///
/// The payloads are also pghived's durable copy of the graph: a restarted
/// session replays its ingest log through ApplyPayload, which rebuilds the
/// graph and the fill bitmaps alike.
class GraphAssembler {
 public:
  /// `graph` must be empty and outlive the assembler.
  explicit GraphAssembler(pg::PropertyGraph* graph) : graph_(graph) {}

  /// Applies one ingest payload; member element ids append to `*batch` in
  /// payload order (which the client emits in SplitIntoBatches order).
  util::Status ApplyPayload(std::string_view payload, pg::GraphBatch* batch);

  /// Ok when every declared element has been materialized.
  util::Status CheckComplete() const;

  size_t nodes_filled() const { return nodes_filled_; }
  size_t edges_filled() const { return edges_filled_; }

 private:
  // `record` is the payload's one parse record (pg::ElementRecord).
  util::Status ApplyLine(std::string_view line, pg::ElementRecord* record,
                         pg::GraphBatch* batch);
  util::Status ApplyHeader(std::string_view line, std::string_view fields);
  util::Status ApplyVocab(std::string_view line);
  util::Status MaterializeNode(std::string_view line, bool member,
                               pg::ElementRecord* record,
                               pg::GraphBatch* batch);
  util::Status MaterializeEdge(std::string_view line,
                               pg::ElementRecord* record,
                               pg::GraphBatch* batch);

  pg::PropertyGraph* graph_;
  bool sized_ = false;
  std::vector<bool> node_filled_;
  std::vector<bool> edge_filled_;
  size_t nodes_filled_ = 0;
  size_t edges_filled_ = 0;
};

}  // namespace pghive::service

#endif  // PGHIVE_SERVICE_ASSEMBLER_H_

#include "embed/corpus.h"

#include "pg/batch.h"

namespace pghive::embed {

LabelCorpus BuildLabelCorpus(const pg::PropertyGraph& graph,
                             const pg::ColumnStore& edge_cols,
                             const pg::ColumnStore& node_cols) {
  LabelCorpus corpus;
  std::vector<bool> node_in_edge(graph.num_nodes(), false);

  const size_t num_edges = edge_cols.num_rows();
  for (size_t i = 0; i < num_edges; ++i) {
    const pg::LabelSetToken src = edge_cols.src_tokens()[i];
    const pg::LabelSetToken et = edge_cols.tokens()[i];
    const pg::LabelSetToken dst = edge_cols.dst_tokens()[i];
    std::vector<pg::LabelSetToken> sentence;
    if (src != pg::kNoToken) sentence.push_back(src);
    if (et != pg::kNoToken) sentence.push_back(et);
    if (dst != pg::kNoToken) sentence.push_back(dst);
    if (sentence.size() >= 2) corpus.sentences.push_back(std::move(sentence));
    node_in_edge[edge_cols.src_ids()[i]] = true;
    node_in_edge[edge_cols.dst_ids()[i]] = true;
  }

  const size_t num_nodes = node_cols.num_rows();
  for (size_t i = 0; i < num_nodes; ++i) {
    if (node_in_edge[node_cols.ids()[i]]) continue;
    const pg::LabelSetToken t = node_cols.tokens()[i];
    if (t != pg::kNoToken) corpus.sentences.push_back({t});
  }

  corpus.vocab_size = graph.vocab().num_tokens();
  return corpus;
}

LabelCorpus BuildLabelCorpus(pg::PropertyGraph& graph) {
  const pg::GraphBatch batch = pg::FullBatch(graph);
  const pg::ColumnStore edge_cols =
      pg::ColumnStore::ForEdges(graph, batch.edge_ids);
  const pg::ColumnStore node_cols =
      pg::ColumnStore::ForNodes(graph, batch.node_ids);
  return BuildLabelCorpus(graph, edge_cols, node_cols);
}

}  // namespace pghive::embed

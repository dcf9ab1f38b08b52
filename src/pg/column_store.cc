#include "pg/column_store.h"

namespace pghive::pg {

void ColumnStore::BuildKeyCsr(const std::vector<const PropertyMap*>& rows) {
  const size_t n = rows.size();
  key_offsets_.assign(n + 1, 0);
  size_t total_keys = 0;
  for (size_t r = 0; r < n; ++r) {
    total_keys += rows[r]->size();
    key_offsets_[r + 1] = static_cast<uint32_t>(total_keys);
  }
  key_ids_.reserve(total_keys);
  // entries() is sorted by key id, so each row's run ascends.
  for (const PropertyMap* row : rows) {
    for (const auto& [key, value] : row->entries()) key_ids_.push_back(key);
  }
}

void ColumnStore::FillBinaryBlock(size_t lo, size_t hi, size_t max_key,
                                  float* data, size_t stride,
                                  size_t offset) const {
  for (size_t row = lo; row < hi; ++row) {
    float* out = data + (row - lo) * stride + offset;
    for (uint32_t k = key_offsets_[row]; k < key_offsets_[row + 1]; ++k) {
      if (key_ids_[k] >= max_key) break;  // Keys ascend within a row.
      out[key_ids_[k]] = 1.0f;
    }
  }
}

ColumnStore ColumnStore::ForNodes(PropertyGraph& graph,
                                  const std::vector<NodeId>& ids) {
  ColumnStore store;
  store.ids_ = ids;
  store.tokens_.reserve(ids.size());
  std::vector<const PropertyMap*> rows;
  rows.reserve(ids.size());
  for (const NodeId id : ids) {
    const Node& n = graph.node(id);
    store.tokens_.push_back(graph.vocab().TokenForLabelSet(n.labels));
    rows.push_back(&n.properties);
  }
  store.BuildKeyCsr(rows);
  return store;
}

ColumnStore ColumnStore::ForEdges(PropertyGraph& graph,
                                  const std::vector<EdgeId>& ids) {
  ColumnStore store;
  store.ids_ = ids;
  store.tokens_.reserve(ids.size());
  store.src_tokens_.reserve(ids.size());
  store.dst_tokens_.reserve(ids.size());
  store.src_ids_.reserve(ids.size());
  store.dst_ids_.reserve(ids.size());
  std::vector<const PropertyMap*> rows;
  rows.reserve(ids.size());
  Vocabulary& vocab = graph.vocab();
  for (const EdgeId id : ids) {
    const Edge& e = graph.edge(id);
    // Intern order per edge is (src, edge, dst) — the sentence order the
    // corpus builder emits, which pins Word2Vec token-id history.
    const LabelSetToken src = vocab.TokenForLabelSet(graph.node(e.src).labels);
    const LabelSetToken own = vocab.TokenForLabelSet(e.labels);
    const LabelSetToken dst = vocab.TokenForLabelSet(graph.node(e.dst).labels);
    store.src_tokens_.push_back(src);
    store.tokens_.push_back(own);
    store.dst_tokens_.push_back(dst);
    store.src_ids_.push_back(e.src);
    store.dst_ids_.push_back(e.dst);
    rows.push_back(&e.properties);
  }
  store.BuildKeyCsr(rows);
  return store;
}

}  // namespace pghive::pg

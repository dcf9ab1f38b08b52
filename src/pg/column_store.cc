#include "pg/column_store.h"

#include <algorithm>
#include <bit>

#include "util/rng.h"

namespace pghive::pg {

PatternIndex PatternIndex::Identity(size_t num_rows) {
  PatternIndex index;
  index.row_patterns.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    index.row_patterns[r] = static_cast<uint32_t>(r);
  }
  index.pattern_rows = index.row_patterns;
  index.pattern_sizes.assign(num_rows, 1);
  return index;
}

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

// Node stores leave the endpoint columns empty, so only edge stores compare
// and hash them.
bool ColumnStore::SamePattern(size_t a, size_t b) const {
  if (tokens_[a] != tokens_[b]) return false;
  if (!src_tokens_.empty() && (src_tokens_[a] != src_tokens_[b] ||
                               dst_tokens_[a] != dst_tokens_[b])) {
    return false;
  }
  return std::equal(key_ids_.begin() + key_offsets_[a],
                    key_ids_.begin() + key_offsets_[a + 1],
                    key_ids_.begin() + key_offsets_[b],
                    key_ids_.begin() + key_offsets_[b + 1]);
}

// One multiply-xor step per column value, one full mix at the end: the
// probe only needs a well-spread hash, and SamePattern decides equality.
uint64_t ColumnStore::PatternHash(size_t row) const {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  auto step = [](uint64_t h, uint64_t value) {
    return (h ^ (value + 1)) * kMul;
  };
  uint64_t h = step(0, tokens_[row]);
  if (!src_tokens_.empty()) {
    h = step(h, src_tokens_[row]);
    h = step(h, dst_tokens_[row]);
  }
  for (uint32_t k = key_offsets_[row]; k < key_offsets_[row + 1]; ++k) {
    h = step(h, key_ids_[k]);
  }
  return util::Mix64(h);
}

void ColumnStore::BuildPatternIndex() {
  const size_t n = num_rows();
  PatternIndex& index = patterns_;
  index.row_patterns.resize(n);
  // Open addressing over pattern ids by pattern hash, sized so the table
  // stays at most half full even when every row is its own pattern. A probe
  // confirms a match against the pattern's representative row, so a hash
  // collision never merges two patterns.
  constexpr uint32_t kEmpty = UINT32_MAX;
  std::vector<uint32_t> slots(std::bit_ceil(2 * n + 1), kEmpty);
  const size_t mask = slots.size() - 1;
  std::vector<uint64_t> hashes;  // Pattern -> its hash.
  for (size_t r = 0; r < n; ++r) {
    // Rows of one pattern tend to sit together; a repeat needs no probe.
    if (r > 0 && SamePattern(r, r - 1)) {
      const uint32_t p = index.row_patterns[r - 1];
      index.row_patterns[r] = p;
      ++index.pattern_sizes[p];
      continue;
    }
    const uint64_t hash = PatternHash(r);
    size_t slot = hash & mask;
    while (slots[slot] != kEmpty &&
           (hashes[slots[slot]] != hash ||
            !SamePattern(r, index.pattern_rows[slots[slot]]))) {
      slot = (slot + 1) & mask;
    }
    uint32_t p = slots[slot];
    if (p == kEmpty) {
      p = static_cast<uint32_t>(index.num_patterns());
      slots[slot] = p;
      index.pattern_rows.push_back(static_cast<uint32_t>(r));
      index.pattern_sizes.push_back(0);
      hashes.push_back(hash);
    }
    index.row_patterns[r] = p;
    ++index.pattern_sizes[p];
  }
}

void ColumnStore::FillBinaryBlock(const std::vector<uint32_t>& rows,
                                  size_t lo, size_t hi, size_t max_key,
                                  float* data, size_t stride,
                                  size_t offset) const {
  for (size_t i = lo; i < hi; ++i) {
    float* out = data + (i - lo) * stride + offset;
    const uint32_t row = rows[i];
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
  store.BuildPatternIndex();
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
  // Each endpoint node's token, resolved at its first use in this call: a
  // node's label set does not change while the store is built, so later
  // edges read the array instead of looking the set up again.
  constexpr LabelSetToken kUnresolved = kNoToken - 1;
  std::vector<LabelSetToken> node_tokens(graph.num_nodes(), kUnresolved);
  auto node_token = [&](NodeId node) {
    LabelSetToken& token = node_tokens[node];
    if (token == kUnresolved) {
      token = vocab.TokenForLabelSet(graph.node(node).labels);
    }
    return token;
  };
  for (const EdgeId id : ids) {
    const Edge& e = graph.edge(id);
    // Intern order per edge is (src, edge, dst) — the sentence order the
    // corpus builder emits, which pins Word2Vec token-id history. A node's
    // set is interned at its first lookup, so the array keeps that order.
    const LabelSetToken src = node_token(e.src);
    const LabelSetToken own = vocab.TokenForLabelSet(e.labels);
    const LabelSetToken dst = node_token(e.dst);
    store.src_tokens_.push_back(src);
    store.tokens_.push_back(own);
    store.dst_tokens_.push_back(dst);
    store.src_ids_.push_back(e.src);
    store.dst_ids_.push_back(e.dst);
    rows.push_back(&e.properties);
  }
  store.BuildKeyCsr(rows);
  store.BuildPatternIndex();
  return store;
}

}  // namespace pghive::pg

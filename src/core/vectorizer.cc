#include "core/vectorizer.h"

#include <algorithm>

namespace pghive::core {

namespace {

constexpr uint64_t kLabelTag = 1ULL << 40;
constexpr uint64_t kSrcTag = 2ULL << 40;
constexpr uint64_t kDstTag = 3ULL << 40;
constexpr uint64_t kKeyTag = 4ULL << 40;

/// Rows per ParallelFor chunk. Filling one row copies a few embedding
/// blocks and its key bits, so this keeps chunk dispatch overhead well under
/// 1% of the work.
constexpr size_t kRowGrain = 256;

}  // namespace

uint64_t MinHashLabelElement(uint32_t token) { return kLabelTag | token; }
uint64_t MinHashSrcElement(uint32_t token) { return kSrcTag | token; }
uint64_t MinHashDstElement(uint32_t token) { return kDstTag | token; }
uint64_t MinHashKeyElement(uint32_t key) { return kKeyTag | key; }

Vectorizer::Vectorizer(pg::PropertyGraph* graph,
                       const embed::LabelEmbedder* embedder,
                       util::ThreadPool* pool)
    : graph_(graph), embedder_(embedder), pool_(pool) {}

namespace {

// The rows a per-row call fills: every row, in order — the representatives
// of the identity index.
std::vector<uint32_t> AllRows(const pg::ColumnStore& cols) {
  return pg::PatternIndex::Identity(cols.num_rows()).pattern_rows;
}

std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>> EndpointsOf(
    const pg::ColumnStore& cols, const std::vector<uint32_t>& rows) {
  std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>> out;
  out.reserve(rows.size());
  for (const uint32_t row : rows) {
    out.emplace_back(cols.src_tokens()[row], cols.dst_tokens()[row]);
  }
  return out;
}

}  // namespace

void Vectorizer::TokenTable::Add(const std::vector<pg::LabelSetToken>& tokens,
                                 const std::vector<uint32_t>& rows,
                                 const embed::LabelEmbedder& embedder) {
  dim_ = embedder.dim();
  pg::LabelSetToken prev = pg::kNoToken;
  for (const uint32_t row : rows) {
    const pg::LabelSetToken token = tokens[row];
    // Rows of one label set tend to sit together; skip the lookup for a run.
    if (token == prev || token == pg::kNoToken) continue;
    prev = token;
    const uint32_t entry = static_cast<uint32_t>(tokens_.size());
    if (!index_.try_emplace(token, entry).second) continue;
    tokens_.push_back(token);
    vectors_.resize(tokens_.size() * dim_);
    embedder.Embed(token, &vectors_[entry * dim_]);
  }
}

const float* Vectorizer::TokenTable::Find(pg::LabelSetToken token) const {
  const auto it = index_.find(token);
  return it == index_.end() ? nullptr : &vectors_[it->second * dim_];
}

void Vectorizer::TokenTable::FillBlock(
    const std::vector<pg::LabelSetToken>& tokens,
    const std::vector<uint32_t>& rows, size_t lo, size_t hi, float* data,
    size_t stride, size_t offset) const {
  pg::LabelSetToken prev = pg::kNoToken;
  const float* vec = nullptr;
  for (size_t i = lo; i < hi; ++i) {
    const pg::LabelSetToken token = tokens[rows[i]];
    if (token != prev) {
      prev = token;
      vec = Find(prev);
    }
    if (vec != nullptr) {
      std::copy_n(vec, dim_, data + (i - lo) * stride + offset);
    }
  }
}

void Vectorizer::TokenTable::Clear() {
  index_.clear();
  tokens_.clear();
  vectors_.clear();
}

const pg::ColumnStore& Vectorizer::NodeColumns(const pg::GraphBatch& batch) {
  if (node_cols_.ids() != batch.node_ids) {
    node_cols_ = pg::ColumnStore::ForNodes(*graph_, batch.node_ids);
    table_.Clear();
  }
  return node_cols_;
}

const pg::ColumnStore& Vectorizer::EdgeColumns(const pg::GraphBatch& batch) {
  if (edge_cols_.ids() != batch.edge_ids) {
    edge_cols_ = pg::ColumnStore::ForEdges(*graph_, batch.edge_ids);
    table_.Clear();
  }
  return edge_cols_;
}

FeatureMatrix Vectorizer::NodeFeaturesOf(const pg::ColumnStore& cols,
                                         const std::vector<uint32_t>& rows) {
  const size_t d = embedder_->dim();
  const size_t k = graph_->vocab().num_keys();
  FeatureMatrix m;
  m.num = rows.size();
  m.dim = d + k;
  m.data.assign(m.num * m.dim, 0.0f);
  table_.Add(cols.tokens(), rows, *embedder_);
  util::ParallelFor(pool_, 0, m.num, kRowGrain, [&](size_t lo, size_t hi) {
    float* out = &m.data[lo * m.dim];
    table_.FillBlock(cols.tokens(), rows, lo, hi, out, m.dim, 0);
    cols.FillBinaryBlock(rows, lo, hi, k, out, m.dim, d);
  });
  return m;
}

FeatureMatrix Vectorizer::EdgeFeaturesOf(const pg::ColumnStore& cols,
                                         const std::vector<uint32_t>& rows) {
  const size_t d = embedder_->dim();
  const size_t q = graph_->vocab().num_keys();
  FeatureMatrix m;
  m.num = rows.size();
  m.dim = 3 * d + q;
  m.data.assign(m.num * m.dim, 0.0f);
  table_.Add(cols.tokens(), rows, *embedder_);
  table_.Add(cols.src_tokens(), rows, *embedder_);
  table_.Add(cols.dst_tokens(), rows, *embedder_);
  util::ParallelFor(pool_, 0, m.num, kRowGrain, [&](size_t lo, size_t hi) {
    float* out = &m.data[lo * m.dim];
    table_.FillBlock(cols.tokens(), rows, lo, hi, out, m.dim, 0);
    table_.FillBlock(cols.src_tokens(), rows, lo, hi, out, m.dim, d);
    table_.FillBlock(cols.dst_tokens(), rows, lo, hi, out, m.dim, 2 * d);
    cols.FillBinaryBlock(rows, lo, hi, q, out, m.dim, 3 * d);
  });
  return m;
}

FeatureMatrix Vectorizer::NodeFeatures(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = NodeColumns(batch);
  return NodeFeaturesOf(cols, AllRows(cols));
}

FeatureMatrix Vectorizer::EdgeFeatures(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  return EdgeFeaturesOf(cols, AllRows(cols));
}

FeatureMatrix Vectorizer::NodePatternFeatures(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = NodeColumns(batch);
  return NodeFeaturesOf(cols, cols.patterns().pattern_rows);
}

FeatureMatrix Vectorizer::EdgePatternFeatures(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  return EdgeFeaturesOf(cols, cols.patterns().pattern_rows);
}

std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>
Vectorizer::EdgeEndpointTokens(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  return EndpointsOf(cols, AllRows(cols));
}

std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>
Vectorizer::EdgePatternEndpoints(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  return EndpointsOf(cols, cols.patterns().pattern_rows);
}

// The set producers fill one flat CSR from the column store. Push order per
// entry is (label, src, dst, keys): the tags ascend in that order and key
// ids ascend within a row, so every set is emitted already sorted. Node
// stores have no endpoint columns.
ElementSetCsr Vectorizer::SetsOf(const pg::ColumnStore& cols,
                                 const std::vector<uint32_t>& rows,
                                 bool edges) const {
  const size_t num = rows.size();
  const std::vector<uint32_t>& key_offsets = cols.key_offsets();
  const std::vector<pg::PropKeyId>& key_ids = cols.key_ids();
  auto tokens_of = [&](uint32_t row) {
    uint32_t count = cols.tokens()[row] != pg::kNoToken ? 1 : 0;
    if (edges) {
      count += (cols.src_tokens()[row] != pg::kNoToken ? 1 : 0) +
               (cols.dst_tokens()[row] != pg::kNoToken ? 1 : 0);
    }
    return count;
  };
  ElementSetCsr csr;
  csr.offsets.assign(num + 1, 0);
  for (size_t i = 0; i < num; ++i) {
    const uint32_t row = rows[i];
    const uint32_t keys = key_offsets[row + 1] - key_offsets[row];
    csr.offsets[i + 1] = csr.offsets[i] + tokens_of(row) + keys;
  }
  csr.elements.resize(csr.offsets[num]);
  for (size_t i = 0; i < num; ++i) {
    const uint32_t row = rows[i];
    uint64_t* out = &csr.elements[csr.offsets[i]];
    if (cols.tokens()[row] != pg::kNoToken) {
      *out++ = MinHashLabelElement(cols.tokens()[row]);
    }
    if (edges && cols.src_tokens()[row] != pg::kNoToken) {
      *out++ = MinHashSrcElement(cols.src_tokens()[row]);
    }
    if (edges && cols.dst_tokens()[row] != pg::kNoToken) {
      *out++ = MinHashDstElement(cols.dst_tokens()[row]);
    }
    for (uint32_t k = key_offsets[row]; k < key_offsets[row + 1]; ++k) {
      *out++ = MinHashKeyElement(key_ids[k]);
    }
  }
  return csr;
}

ElementSetCsr Vectorizer::NodeSetSpans(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = NodeColumns(batch);
  return SetsOf(cols, AllRows(cols), /*edges=*/false);
}

ElementSetCsr Vectorizer::EdgeSetSpans(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  return SetsOf(cols, AllRows(cols), /*edges=*/true);
}

ElementSetCsr Vectorizer::NodePatternSets(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = NodeColumns(batch);
  return SetsOf(cols, cols.patterns().pattern_rows, /*edges=*/false);
}

ElementSetCsr Vectorizer::EdgePatternSets(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  return SetsOf(cols, cols.patterns().pattern_rows, /*edges=*/true);
}

}  // namespace pghive::core

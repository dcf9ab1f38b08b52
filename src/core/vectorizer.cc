#include "core/vectorizer.h"

#include <algorithm>

namespace pghive::core {

namespace {

constexpr uint64_t kLabelTag = 1ULL << 40;
constexpr uint64_t kSrcTag = 2ULL << 40;
constexpr uint64_t kDstTag = 3ULL << 40;
constexpr uint64_t kKeyTag = 4ULL << 40;

/// Rows (or table tokens) per ParallelFor chunk. Embedding one token is a
/// few hundred flops, so this keeps chunk dispatch overhead well under 1%
/// of the work.
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

void Vectorizer::TokenTable::Add(const std::vector<pg::LabelSetToken>& tokens,
                                 const embed::LabelEmbedder& embedder,
                                 util::ThreadPool* pool) {
  dim_ = embedder.dim();
  const size_t first_new = tokens_.size();
  pg::LabelSetToken prev = pg::kNoToken;
  for (const pg::LabelSetToken token : tokens) {
    // Rows of one label set tend to sit together; skip the lookup for a run.
    if (token == prev || token == pg::kNoToken) continue;
    prev = token;
    const uint32_t entry = static_cast<uint32_t>(tokens_.size());
    if (index_.try_emplace(token, entry).second) tokens_.push_back(token);
  }
  vectors_.resize(tokens_.size() * dim_);
  util::ParallelFor(pool, first_new, tokens_.size(), kRowGrain,
                    [&](size_t lo, size_t hi) {
                      for (size_t e = lo; e < hi; ++e) {
                        embedder.Embed(tokens_[e], &vectors_[e * dim_]);
                      }
                    });
}

const float* Vectorizer::TokenTable::Find(pg::LabelSetToken token) const {
  const auto it = index_.find(token);
  return it == index_.end() ? nullptr : &vectors_[it->second * dim_];
}

void Vectorizer::TokenTable::FillBlock(
    const std::vector<pg::LabelSetToken>& tokens, size_t lo, size_t hi,
    float* data, size_t stride, size_t offset) const {
  pg::LabelSetToken prev = pg::kNoToken;
  const float* vec = nullptr;
  for (size_t row = lo; row < hi; ++row) {
    if (tokens[row] != prev) {
      prev = tokens[row];
      vec = Find(prev);
    }
    if (vec != nullptr) {
      std::copy_n(vec, dim_, data + (row - lo) * stride + offset);
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

FeatureMatrix Vectorizer::NodeFeatures(const pg::GraphBatch& batch) {
  const size_t d = embedder_->dim();
  const size_t k = graph_->vocab().num_keys();
  FeatureMatrix m;
  m.num = batch.node_ids.size();
  m.dim = d + k;
  m.data.assign(m.num * m.dim, 0.0f);
  const pg::ColumnStore& cols = NodeColumns(batch);
  table_.Add(cols.tokens(), *embedder_, pool_);
  util::ParallelFor(pool_, 0, m.num, kRowGrain, [&](size_t lo, size_t hi) {
    float* rows = &m.data[lo * m.dim];
    table_.FillBlock(cols.tokens(), lo, hi, rows, m.dim, 0);
    cols.FillBinaryBlock(lo, hi, k, rows, m.dim, d);
  });
  return m;
}

FeatureMatrix Vectorizer::EdgeFeatures(const pg::GraphBatch& batch) {
  const size_t d = embedder_->dim();
  const size_t q = graph_->vocab().num_keys();
  FeatureMatrix m;
  m.num = batch.edge_ids.size();
  m.dim = 3 * d + q;
  m.data.assign(m.num * m.dim, 0.0f);
  const pg::ColumnStore& cols = EdgeColumns(batch);
  table_.Add(cols.tokens(), *embedder_, pool_);
  table_.Add(cols.src_tokens(), *embedder_, pool_);
  table_.Add(cols.dst_tokens(), *embedder_, pool_);
  util::ParallelFor(pool_, 0, m.num, kRowGrain, [&](size_t lo, size_t hi) {
    float* rows = &m.data[lo * m.dim];
    table_.FillBlock(cols.tokens(), lo, hi, rows, m.dim, 0);
    table_.FillBlock(cols.src_tokens(), lo, hi, rows, m.dim, d);
    table_.FillBlock(cols.dst_tokens(), lo, hi, rows, m.dim, 2 * d);
    cols.FillBinaryBlock(lo, hi, q, rows, m.dim, 3 * d);
  });
  return m;
}

std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>
Vectorizer::EdgeEndpointTokens(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>> out;
  out.reserve(cols.num_rows());
  for (size_t i = 0; i < cols.num_rows(); ++i) {
    out.emplace_back(cols.src_tokens()[i], cols.dst_tokens()[i]);
  }
  return out;
}

// The set producers fill one flat CSR from the column store. Push order per
// row is (label, src, dst, keys): the tags ascend in that order and key ids
// ascend within a row, so every row is emitted already sorted.

ElementSetCsr Vectorizer::NodeSetSpans(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = NodeColumns(batch);
  const size_t num = cols.num_rows();
  const std::vector<uint32_t>& key_offsets = cols.key_offsets();
  const std::vector<pg::PropKeyId>& key_ids = cols.key_ids();
  ElementSetCsr csr;
  csr.offsets.assign(num + 1, 0);
  for (size_t i = 0; i < num; ++i) {
    const uint32_t keys = key_offsets[i + 1] - key_offsets[i];
    const uint32_t label = cols.tokens()[i] != pg::kNoToken ? 1 : 0;
    csr.offsets[i + 1] = csr.offsets[i] + label + keys;
  }
  csr.elements.resize(csr.offsets[num]);
  util::ParallelFor(pool_, 0, num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      uint64_t* out = &csr.elements[csr.offsets[i]];
      if (cols.tokens()[i] != pg::kNoToken) {
        *out++ = MinHashLabelElement(cols.tokens()[i]);
      }
      for (uint32_t k = key_offsets[i]; k < key_offsets[i + 1]; ++k) {
        *out++ = MinHashKeyElement(key_ids[k]);
      }
    }
  });
  return csr;
}

ElementSetCsr Vectorizer::EdgeSetSpans(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  const size_t num = cols.num_rows();
  const std::vector<uint32_t>& key_offsets = cols.key_offsets();
  const std::vector<pg::PropKeyId>& key_ids = cols.key_ids();
  ElementSetCsr csr;
  csr.offsets.assign(num + 1, 0);
  for (size_t i = 0; i < num; ++i) {
    const uint32_t keys = key_offsets[i + 1] - key_offsets[i];
    const uint32_t tokens = (cols.tokens()[i] != pg::kNoToken ? 1 : 0) +
                            (cols.src_tokens()[i] != pg::kNoToken ? 1 : 0) +
                            (cols.dst_tokens()[i] != pg::kNoToken ? 1 : 0);
    csr.offsets[i + 1] = csr.offsets[i] + tokens + keys;
  }
  csr.elements.resize(csr.offsets[num]);
  util::ParallelFor(pool_, 0, num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      uint64_t* out = &csr.elements[csr.offsets[i]];
      if (cols.tokens()[i] != pg::kNoToken) {
        *out++ = MinHashLabelElement(cols.tokens()[i]);
      }
      if (cols.src_tokens()[i] != pg::kNoToken) {
        *out++ = MinHashSrcElement(cols.src_tokens()[i]);
      }
      if (cols.dst_tokens()[i] != pg::kNoToken) {
        *out++ = MinHashDstElement(cols.dst_tokens()[i]);
      }
      for (uint32_t k = key_offsets[i]; k < key_offsets[i + 1]; ++k) {
        *out++ = MinHashKeyElement(key_ids[k]);
      }
    }
  });
  return csr;
}

}  // namespace pghive::core

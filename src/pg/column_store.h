#ifndef PGHIVE_PG_COLUMN_STORE_H_
#define PGHIVE_PG_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pg/graph.h"

namespace pghive::pg {

/// A struct-of-arrays snapshot of one batch's elements (nodes or edges, in
/// batch order): interned label-set token-id arrays and a CSR of the per-row
/// sorted property-key sets — everything the §4.1 representation vectors
/// read, laid out contiguously so the vectorize / LSH / corpus inner loops
/// scan arrays instead of chasing per-row PropertyMap allocations (the
/// Arrow-table-per-property-set idea of KatanaGraph's RDGCore, scoped to a
/// batch). Property values are not copied: discovery only reads which keys
/// a row carries.
///
/// Built once per batch from the rows, which stay the source of truth.
/// Building interns label-set tokens sequentially in a canonical order
/// (edges: src, edge, dst per edge; nodes: row order), so token ids — and
/// therefore every downstream schema — never depend on the thread count.
class ColumnStore {
 public:
  ColumnStore() = default;

  size_t num_rows() const { return ids_.size(); }

  /// The element ids this store was built from, in row order.
  const std::vector<uint64_t>& ids() const { return ids_; }

  /// Label-set token per row (nodes: the node's token; edges: the edge's
  /// own token). kNoToken for unlabeled elements.
  const std::vector<LabelSetToken>& tokens() const { return tokens_; }

  /// Edge stores only: endpoint label-set tokens and endpoint node ids.
  const std::vector<LabelSetToken>& src_tokens() const { return src_tokens_; }
  const std::vector<LabelSetToken>& dst_tokens() const { return dst_tokens_; }
  const std::vector<NodeId>& src_ids() const { return src_ids_; }
  const std::vector<NodeId>& dst_ids() const { return dst_ids_; }

  /// CSR of the per-row property-key sets: row i's keys, ascending, are
  /// key_ids()[key_offsets()[i] .. key_offsets()[i+1]). A key set to an
  /// explicit null is present; an erased key is not.
  const std::vector<uint32_t>& key_offsets() const { return key_offsets_; }
  const std::vector<PropKeyId>& key_ids() const { return key_ids_; }

  /// Writes 1.0f into data[(row - lo) * stride + offset + key] for every
  /// key of every row in [lo, hi) with key < max_key — the binary block of
  /// the §4.1 representation vectors. `data` points at the feature row of
  /// `lo`.
  void FillBinaryBlock(size_t lo, size_t hi, size_t max_key, float* data,
                       size_t stride, size_t offset) const;

  /// Builds the store for `ids` (in order) against `graph`, interning any
  /// unseen label-set tokens in row order.
  static ColumnStore ForNodes(PropertyGraph& graph,
                              const std::vector<NodeId>& ids);

  /// Edge version; also captures endpoint tokens and ids. Interning order
  /// per edge is (src, edge, dst) — the corpus-builder order the Word2Vec
  /// token-id history depends on.
  static ColumnStore ForEdges(PropertyGraph& graph,
                              const std::vector<EdgeId>& ids);

 private:
  void BuildKeyCsr(const std::vector<const PropertyMap*>& rows);

  std::vector<uint64_t> ids_;
  std::vector<LabelSetToken> tokens_;
  std::vector<LabelSetToken> src_tokens_;
  std::vector<LabelSetToken> dst_tokens_;
  std::vector<NodeId> src_ids_;
  std::vector<NodeId> dst_ids_;
  std::vector<uint32_t> key_offsets_;
  std::vector<PropKeyId> key_ids_;
};

}  // namespace pghive::pg

#endif  // PGHIVE_PG_COLUMN_STORE_H_

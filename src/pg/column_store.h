#ifndef PGHIVE_PG_COLUMN_STORE_H_
#define PGHIVE_PG_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pg/graph.h"

namespace pghive::pg {

/// Which rows of a batch side share a pattern. A row's pattern is what its
/// §4.1 feature row and its MinHash set read: its label-set token, for an
/// edge also its endpoints' tokens, and its property-key set. Rows of one
/// pattern get one vector, one signature and one cluster, so discovery's
/// per-element layers run once per pattern and map the result back to rows.
///
/// Patterns are numbered by first occurrence in row order, so pattern p's
/// representative (its first row) ascends in p, and any first-occurrence
/// numbering of clusters over patterns equals the one over rows.
struct PatternIndex {
  std::vector<uint32_t> row_patterns;   ///< Row -> pattern.
  std::vector<uint32_t> pattern_rows;   ///< Pattern -> first row.
  std::vector<uint32_t> pattern_sizes;  ///< Pattern -> number of rows.

  size_t num_rows() const { return row_patterns.size(); }
  size_t num_patterns() const { return pattern_rows.size(); }

  /// Every row its own pattern: the per-row entry points run the pattern
  /// code on this index.
  static PatternIndex Identity(size_t num_rows);
};

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
/// The same sequential pass numbers the rows' patterns (PatternIndex), which
/// the vectorizer, the adaptive choice, LSH and the candidate builders then
/// run on instead of rows.
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

  /// The rows' pattern index, built with the store. Equality is exact: a
  /// hash of the pattern columns only finds the candidate pattern, and the
  /// match is checked against its representative row's columns.
  const PatternIndex& patterns() const { return patterns_; }

  /// Writes 1.0f into data[(i - lo) * stride + offset + key] for every key
  /// with key < max_key of row rows[i], for every i in [lo, hi) — the binary
  /// block of the §4.1 representation vectors of the listed rows. `data`
  /// points at the feature row of rows[lo].
  void FillBinaryBlock(const std::vector<uint32_t>& rows, size_t lo,
                       size_t hi, size_t max_key, float* data, size_t stride,
                       size_t offset) const;

  /// Builds the store and its pattern index for `ids` (in order) against
  /// `graph`, interning any unseen label-set tokens in row order.
  static ColumnStore ForNodes(PropertyGraph& graph,
                              const std::vector<NodeId>& ids);

  /// Edge version; also captures endpoint tokens and ids. Interning order
  /// per edge is (src, edge, dst) — the corpus-builder order the Word2Vec
  /// token-id history depends on. Each endpoint node's token is looked up
  /// once per call, at its first use, through a node-indexed array (4 bytes
  /// per graph node).
  static ColumnStore ForEdges(PropertyGraph& graph,
                              const std::vector<EdgeId>& ids);

 private:
  void BuildKeyCsr(const std::vector<const PropertyMap*>& rows);
  void BuildPatternIndex();
  bool SamePattern(size_t a, size_t b) const;
  uint64_t PatternHash(size_t row) const;

  std::vector<uint64_t> ids_;
  std::vector<LabelSetToken> tokens_;
  std::vector<LabelSetToken> src_tokens_;
  std::vector<LabelSetToken> dst_tokens_;
  std::vector<NodeId> src_ids_;
  std::vector<NodeId> dst_ids_;
  std::vector<uint32_t> key_offsets_;
  std::vector<PropKeyId> key_ids_;
  PatternIndex patterns_;
};

}  // namespace pghive::pg

#endif  // PGHIVE_PG_COLUMN_STORE_H_

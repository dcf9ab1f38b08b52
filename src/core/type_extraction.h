#ifndef PGHIVE_CORE_TYPE_EXTRACTION_H_
#define PGHIVE_CORE_TYPE_EXTRACTION_H_

#include <cstdint>
#include <vector>

#include "core/schema.h"
#include "lsh/clustering.h"
#include "pg/batch.h"
#include "pg/column_store.h"
#include "pg/graph.h"

namespace pghive::core {

/// A candidate type: the representative pattern of one LSH cluster (§4.2,
/// "cluster representative") plus per-property evidence.
struct CandidateType {
  std::vector<pg::LabelId> labels;    ///< Union over members, sorted.
  std::vector<pg::PropKeyId> keys;    ///< Union over members, sorted.
  std::vector<uint64_t> instances;    ///< Node or edge ids of the members.
  size_t instance_count = 0;
  std::vector<std::pair<pg::PropKeyId, size_t>> key_counts;  ///< Sorted by key.
  std::vector<uint64_t> pattern_hashes;  ///< Distinct member pattern hashes.
  /// Edges only: distinct (src token, dst token) pairs over members.
  std::vector<std::pair<uint32_t, uint32_t>> endpoints;

  bool labeled() const { return !labels.empty(); }
};

/// Builds node candidates from an LSH clustering of a batch's node patterns:
/// `ids` are the rows (batch.node_ids), `patterns` their pattern index, and
/// `clusters` clusters the patterns. Cluster i's representative is (union
/// of labels, union of keys) over its members, with per-key presence counts
/// for the later constraint inference. Each pattern folds into its
/// cluster's candidate once: its labels, its key counts weighted by its row
/// count, and its representative element's pattern hash. One walk of the
/// rows then appends the instance ids, in ascending row order.
std::vector<CandidateType> BuildNodeCandidates(
    const pg::PropertyGraph& graph, const std::vector<pg::NodeId>& ids,
    const pg::PatternIndex& patterns, const lsh::ClusterSet& clusters);

/// The per-row form: `clusters` clusters the batch's node rows, and every
/// row is its own pattern.
std::vector<CandidateType> BuildNodeCandidates(const pg::PropertyGraph& graph,
                                               const pg::GraphBatch& batch,
                                               const lsh::ClusterSet& clusters);

/// Edge version; also collects endpoint label-set token pairs.
/// `endpoint_tokens[p]` is the (src, dst) label-set token pair of pattern p
/// (Vectorizer::EdgePatternEndpoints). Taking them as input keeps this
/// function free of vocabulary access, which is what lets the pipelined
/// executor run it concurrently with the next batch's preprocess (the only
/// vocabulary writer).
std::vector<CandidateType> BuildEdgeCandidates(
    const pg::PropertyGraph& graph, const std::vector<pg::EdgeId>& ids,
    const pg::PatternIndex& patterns, const lsh::ClusterSet& clusters,
    const std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>&
        endpoint_tokens);

/// The per-row form: `endpoint_tokens[i]` is the pair of batch.edge_ids[i]
/// (Vectorizer::EdgeEndpointTokens), and every row is its own pattern.
std::vector<CandidateType> BuildEdgeCandidates(
    const pg::PropertyGraph& graph, const pg::GraphBatch& batch,
    const lsh::ClusterSet& clusters,
    const std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>&
        endpoint_tokens);

/// Options for Algorithm 2.
struct ExtractionOptions {
  /// Jaccard threshold theta for merging unlabeled clusters (paper: 0.9).
  double jaccard_threshold = 0.9;
};

/// Algorithm 2 — extracting and merging types, applied *incrementally*
/// against an existing schema:
///
///   1. Labeled candidates merge into the type with the identical label set
///      (else they are appended as new types).
///   2. Unlabeled candidates merge into the labeled type with the highest
///      property-set Jaccard >= theta.
///   3. Remaining unlabeled candidates merge with each other (same Jaccard
///      rule) and with existing ABSTRACT types; leftovers become new
///      ABSTRACT types.
///
/// All merges are unions (Lemmas 1 & 2): no label, property, endpoint, or
/// instance is ever dropped, which makes the incremental chain of schemas
/// monotone (S_i ⊑ S_{i+1}).
void ExtractNodeTypes(std::vector<CandidateType> candidates,
                      const ExtractionOptions& options, SchemaGraph* schema);

/// Edge variant. Per §4.3 edges merge primarily by label; unlabeled edge
/// clusters use Jaccard over property keys plus endpoint tokens so that
/// property-less edge types with different endpoints stay distinct.
void ExtractEdgeTypes(std::vector<CandidateType> candidates,
                      const ExtractionOptions& options, SchemaGraph* schema);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_TYPE_EXTRACTION_H_

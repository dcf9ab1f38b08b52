#ifndef PGHIVE_LSH_CLUSTERING_H_
#define PGHIVE_LSH_CLUSTERING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pghive::util {
class ThreadPool;
}

namespace pghive::lsh {

/// How the T hash tables are combined into clusters (§4.2).
///
/// kAnd: two items cluster together iff they collide in *every* table
///       (group-by full signature). Higher T => finer clusters — matches the
///       paper's "increasing T increases selectivity" and is the default;
///       over-fragmentation is repaired by the merging step of §4.3.
/// kOr:  two items cluster together if they collide in *at least one* table
///       (union-find over per-table buckets). Higher T => higher recall.
enum class Amplification { kAnd, kOr };

/// The result of an LSH clustering pass: every input item is assigned to
/// exactly one cluster.
class ClusterSet {
 public:
  ClusterSet() = default;

  /// Builds from a dense assignment vector (item -> cluster id in
  /// [0, num_clusters)).
  explicit ClusterSet(std::vector<uint32_t> assignment);

  size_t num_items() const { return assignment_.size(); }
  size_t num_clusters() const { return members_.size(); }

  uint32_t cluster_of(size_t item) const { return assignment_[item]; }
  const std::vector<uint32_t>& assignment() const { return assignment_; }

  /// Member item indices of one cluster.
  const std::vector<uint32_t>& members(uint32_t cluster) const {
    return members_[cluster];
  }

 private:
  std::vector<uint32_t> assignment_;
  std::vector<std::vector<uint32_t>> members_;
};

/// Groups items by their full T-entry signature (AND amplification).
/// `signatures` is row-major: item i occupies [i*T, (i+1)*T).
///
/// With a pool, the combined-signature hashing and the group-by both run in
/// parallel (util::ParallelRadixGroupBy); cluster ids are byte-identical to
/// the serial first-occurrence assignment at every pool size.
ClusterSet ClusterBySignature(const std::vector<uint64_t>& signatures,
                              size_t num_items, size_t t,
                              util::ThreadPool* pool = nullptr);

/// Union-find clustering: items i and j join when keys[i*C+k] ==
/// keys[j*C+k] for some column k (`keys` is row-major, num_items x C).
/// Serial: for each column in order, a bucket -> first-occupant map over the
/// items in order unions each later occupant with the first, so cluster ids
/// are the components in order of first occurrence. The one union routine
/// behind OR amplification and MinHash banding.
ClusterSet ClusterByAnyKey(const std::vector<uint64_t>& keys,
                           size_t num_items, size_t columns);

/// OR amplification: items sharing any per-table bucket are merged.
/// Signature layout as above; bucket identity within table k is
/// (k, signatures[i*T+k]). The per-item keys are filled on the pool, then
/// ClusterByAnyKey unions them.
ClusterSet ClusterByAnyCollision(const std::vector<uint64_t>& signatures,
                                 size_t num_items, size_t t,
                                 util::ThreadPool* pool = nullptr);

}  // namespace pghive::lsh

#endif  // PGHIVE_LSH_CLUSTERING_H_

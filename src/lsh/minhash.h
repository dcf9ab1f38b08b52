#ifndef PGHIVE_LSH_MINHASH_H_
#define PGHIVE_LSH_MINHASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lsh/clustering.h"
#include "util/thread_pool.h"

namespace pghive::lsh {

/// MinHash LSH parameters (§4.2): T hash functions; when clustering with
/// banding, rows_per_band R groups the T functions into B = T/R bands so the
/// effective Jaccard threshold is roughly (1/B)^(1/R).
struct MinHashParams {
  size_t num_hashes = 24;   ///< T.
  size_t rows_per_band = 6; ///< R (banding only).
  uint64_t seed = 42;
  Amplification amplification = Amplification::kAnd;
};

/// A CSR view over many integer element sets: set i's elements are
/// elements[offsets[i] .. offsets[i+1]) and offsets has num_sets + 1
/// entries. The contiguous (columnar) alternative to
/// vector<vector<uint64_t>>; the view does not own the arrays.
struct SetSpans {
  const uint64_t* elements = nullptr;
  const uint32_t* offsets = nullptr;
  size_t num_sets = 0;
};

/// Min-wise independent hashing over integer element sets. The probability
/// that two sets share a signature slot equals their Jaccard similarity.
class MinHashLsh {
 public:
  explicit MinHashLsh(MinHashParams params);

  /// Writes the T-slot signature of `elements` (arbitrary uint64 ids).
  /// Empty sets receive a sentinel signature unique to empty sets.
  void Signature(const uint64_t* elements, size_t count, uint64_t* out) const;
  void Signature(const std::vector<uint64_t>& elements, uint64_t* out) const;

  /// Signatures of many sets, row-major num x T. With a pool, the T-hash
  /// permutations of each set are computed in parallel across sets (every
  /// set writes its own signature stripe; identical at every pool size).
  /// The SetSpans overload walks one flat element array and yields the same
  /// signatures as the nested-vector form over equal sets.
  std::vector<uint64_t> SignatureAll(
      const std::vector<std::vector<uint64_t>>& sets,
      util::ThreadPool* pool = nullptr) const;
  std::vector<uint64_t> SignatureAll(const SetSpans& sets,
                                     util::ThreadPool* pool = nullptr) const;

  /// Clusters sets. kAnd groups identical full signatures; kOr applies
  /// banding (union-find over band collisions) which approximates a Jaccard
  /// threshold of (1/B)^(1/R). Both hashing and grouping run on the pool
  /// (radix group-by for kAnd, concurrent per-band bucket maps + ordered
  /// union replay for kOr); output is byte-identical at every pool size.
  ClusterSet Cluster(const std::vector<std::vector<uint64_t>>& sets,
                     util::ThreadPool* pool = nullptr) const;
  ClusterSet Cluster(const SetSpans& sets,
                     util::ThreadPool* pool = nullptr) const;

  /// Monte-Carlo-free estimate of Jaccard similarity from two signatures:
  /// the fraction of agreeing slots.
  static double EstimateJaccard(const uint64_t* sig_a, const uint64_t* sig_b,
                                size_t t);

  const MinHashParams& params() const { return params_; }

  /// The banding threshold (1/B)^(1/R) for these parameters.
  double BandingThreshold() const;

  /// Grouping step shared by both Cluster overloads, over precomputed
  /// num x T signatures (row-major). Public so callers that compute the
  /// signatures themselves — e.g. perfbench's layer-by-layer replay, which
  /// times SignatureAll and the grouping apart — reuse the exact grouping
  /// the fused Cluster path applies.
  ClusterSet ClusterFromSignatures(const std::vector<uint64_t>& sigs,
                                   size_t num, util::ThreadPool* pool) const;

 private:
  MinHashParams params_;
  std::vector<uint64_t> hash_seeds_;  // One per hash function.
};

/// Exact Jaccard similarity of two sorted id vectors; returns 1 when both
/// are empty (two property-less patterns are structurally identical).
double ExactJaccard(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b);

}  // namespace pghive::lsh

#endif  // PGHIVE_LSH_MINHASH_H_

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
/// entries (none when num_sets is 0). The view does not own the arrays.
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

  /// Signatures of many sets, row-major num x T: set i's T slots are its
  /// minimum hashes under the T hash functions (element ids are arbitrary
  /// uint64 values), and an empty set gets a sentinel signature that only
  /// empty sets share. With a pool, sets are hashed in parallel (every set
  /// writes its own signature stripe; identical at every pool size).
  std::vector<uint64_t> SignatureAll(const SetSpans& sets,
                                     util::ThreadPool* pool = nullptr) const;

  /// Clusters sets. kAnd groups identical full signatures; kOr applies
  /// banding (union-find over band collisions) which approximates a Jaccard
  /// threshold of (1/B)^(1/R). Signatures and band keys are computed on the
  /// pool; kAnd groups with the radix group-by, kOr unions the band keys
  /// serially (ClusterByAnyKey). Output is byte-identical at every pool
  /// size.
  ClusterSet Cluster(const SetSpans& sets,
                     util::ThreadPool* pool = nullptr) const;

  /// Monte-Carlo-free estimate of Jaccard similarity from two signatures:
  /// the fraction of agreeing slots.
  static double EstimateJaccard(const uint64_t* sig_a, const uint64_t* sig_b,
                                size_t t);

  const MinHashParams& params() const { return params_; }

  /// The banding threshold (1/B)^(1/R) for these parameters.
  double BandingThreshold() const;

  /// Cluster's grouping step, over precomputed num x T signatures
  /// (row-major). Public so callers that compute the signatures themselves
  /// — e.g. perfbench's layer-by-layer replay, which times SignatureAll and
  /// the grouping apart — reuse the exact grouping the fused Cluster path
  /// applies.
  ClusterSet ClusterFromSignatures(const std::vector<uint64_t>& sigs,
                                   size_t num, util::ThreadPool* pool) const;

 private:
  /// Writes the T-slot signature of one set to out[0..T).
  void Signature(const uint64_t* elements, size_t count, uint64_t* out) const;

  MinHashParams params_;
  std::vector<uint64_t> hash_seeds_;  // One per hash function.
};

/// Exact Jaccard similarity of two sorted id vectors; returns 1 when both
/// are empty (two property-less patterns are structurally identical).
double ExactJaccard(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b);

}  // namespace pghive::lsh

#endif  // PGHIVE_LSH_MINHASH_H_

#ifndef PGHIVE_LSH_EUCLIDEAN_LSH_H_
#define PGHIVE_LSH_EUCLIDEAN_LSH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lsh/clustering.h"
#include "util/thread_pool.h"

namespace pghive::lsh {

/// Parameters of the p-stable (bucketed random projection) LSH family
/// (§4.2): bucket length b > 0 controls granularity; T hash tables trade
/// recall/selectivity against runtime.
struct EuclideanLshParams {
  double bucket_length = 1.0;  ///< b.
  size_t num_tables = 16;      ///< T.
  uint64_t seed = 42;
  Amplification amplification = Amplification::kAnd;
};

/// Euclidean LSH (Datar et al., "p-stable"): each table t hashes a vector x
/// to floor((a_t . x + u_t) / b) with a_t a standard Gaussian vector and
/// u_t uniform in [0, b). The single-table collision probability p_b(d) is a
/// decreasing function of the distance d, so nearby vectors share buckets.
class EuclideanLsh {
 public:
  EuclideanLsh(size_t dim, EuclideanLshParams params);

  /// Hashes one vector into all T tables. `out` receives T bucket ids.
  void Hash(const float* x, uint64_t* out) const;

  /// Hashes `num` row-major vectors; returns num x T signatures. With a
  /// pool, rows are hashed in parallel (each row writes its own T-slot
  /// stripe, so the result is identical at every pool size).
  std::vector<uint64_t> HashAll(const std::vector<float>& data, size_t num,
                                util::ThreadPool* pool = nullptr) const;

  /// Full clustering pass over row-major vectors: parallel hashing followed
  /// by the grouping step (radix group-by for kAnd, ClusterByAnyCollision's
  /// serial union for kOr). Output is byte-identical at every pool size.
  ClusterSet Cluster(const std::vector<float>& data, size_t num,
                     util::ThreadPool* pool = nullptr) const;

  size_t dim() const { return dim_; }
  const EuclideanLshParams& params() const { return params_; }

  /// Exact single-table collision probability for two points at distance d:
  ///   p_b(d) = 1 - 2*Phi(-b/d) - (2d / (sqrt(2*pi) b)) (1 - exp(-b^2/(2d^2)))
  /// (Datar et al. 2004). Used by tests to validate empirical rates.
  static double CollisionProbability(double distance, double bucket_length);

 private:
  size_t dim_;
  EuclideanLshParams params_;
  std::vector<float> projections_;  // num_tables x dim.
  std::vector<double> offsets_;     // num_tables.
};

}  // namespace pghive::lsh

#endif  // PGHIVE_LSH_EUCLIDEAN_LSH_H_

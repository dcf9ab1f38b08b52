#include "lsh/euclidean_lsh.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/simd.h"
#include "util/status.h"

namespace pghive::lsh {

EuclideanLsh::EuclideanLsh(size_t dim, EuclideanLshParams params)
    : dim_(dim), params_(params) {
  PGHIVE_CHECK(params_.bucket_length > 0);
  PGHIVE_CHECK(params_.num_tables > 0);
  util::Rng rng(params_.seed);
  projections_.resize(params_.num_tables * dim_);
  offsets_.resize(params_.num_tables);
  for (size_t t = 0; t < params_.num_tables; ++t) {
    for (size_t d = 0; d < dim_; ++d) {
      projections_[t * dim_ + d] = static_cast<float>(rng.NextGaussian());
    }
    offsets_[t] = rng.NextDouble() * params_.bucket_length;
  }
}

void EuclideanLsh::Hash(const float* x, uint64_t* out) const {
  for (size_t t = 0; t < params_.num_tables; ++t) {
    const float* a = &projections_[t * dim_];
    // Fixed-tree kernel: the same sum in every build.
    const double dot = util::DotF32(a, x, dim_);
    double bucket = std::floor((dot + offsets_[t]) / params_.bucket_length);
    out[t] = static_cast<uint64_t>(static_cast<int64_t>(bucket));
  }
}

std::vector<uint64_t> EuclideanLsh::HashAll(const std::vector<float>& data,
                                            size_t num,
                                            util::ThreadPool* pool) const {
  PGHIVE_CHECK(data.size() == num * dim_);
  std::vector<uint64_t> sigs(num * params_.num_tables);
  // Grain sized so one chunk is ~100k multiply-adds regardless of T*dim.
  const size_t grain =
      std::max<size_t>(16, 100000 / std::max<size_t>(1, params_.num_tables * dim_));
  util::ParallelFor(pool, 0, num, grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      Hash(data.data() + i * dim_, &sigs[i * params_.num_tables]);
    }
  });
  return sigs;
}

ClusterSet EuclideanLsh::Cluster(const std::vector<float>& data, size_t num,
                                 util::ThreadPool* pool) const {
  auto sigs = HashAll(data, num, pool);
  if (params_.amplification == Amplification::kAnd) {
    return ClusterBySignature(sigs, num, params_.num_tables, pool);
  }
  return ClusterByAnyCollision(sigs, num, params_.num_tables, pool);
}

double EuclideanLsh::CollisionProbability(double distance,
                                          double bucket_length) {
  if (distance <= 0) return 1.0;
  double r = bucket_length / distance;
  auto phi = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
  return 1.0 - 2.0 * phi(-r) -
         (2.0 / (std::sqrt(2.0 * M_PI) * r)) * (1.0 - std::exp(-r * r / 2.0));
}

}  // namespace pghive::lsh

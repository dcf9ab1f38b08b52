#include "lsh/minhash.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/status.h"

namespace pghive::lsh {

MinHashLsh::MinHashLsh(MinHashParams params) : params_(params) {
  PGHIVE_CHECK(params_.num_hashes > 0);
  if (params_.rows_per_band == 0 ||
      params_.rows_per_band > params_.num_hashes) {
    params_.rows_per_band = params_.num_hashes;
  }
  util::Rng rng(params_.seed);
  hash_seeds_.resize(params_.num_hashes);
  for (auto& s : hash_seeds_) s = rng.NextU64();
}

void MinHashLsh::Signature(const uint64_t* elements, size_t count,
                           uint64_t* out) const {
  const size_t t = params_.num_hashes;
  if (count == 0) {
    // Unique sentinel so empty sets only collide with empty sets.
    for (size_t k = 0; k < t; ++k) out[k] = UINT64_MAX;
    return;
  }
  for (size_t k = 0; k < t; ++k) {
    uint64_t best = UINT64_MAX;
    for (size_t e = 0; e < count; ++e) {
      uint64_t h = util::Mix64(elements[e] ^ hash_seeds_[k]);
      if (h < best) best = h;
    }
    out[k] = best;
  }
}

std::vector<uint64_t> MinHashLsh::SignatureAll(const SetSpans& sets,
                                               util::ThreadPool* pool) const {
  const size_t t = params_.num_hashes;
  std::vector<uint64_t> sigs(sets.num_sets * t);
  const size_t grain = std::max<size_t>(16, 4096 / std::max<size_t>(1, t));
  util::ParallelFor(pool, 0, sets.num_sets, grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      Signature(sets.elements + sets.offsets[i],
                sets.offsets[i + 1] - sets.offsets[i], &sigs[i * t]);
    }
  });
  return sigs;
}

ClusterSet MinHashLsh::Cluster(const SetSpans& sets,
                               util::ThreadPool* pool) const {
  return ClusterFromSignatures(SignatureAll(sets, pool), sets.num_sets, pool);
}

ClusterSet MinHashLsh::ClusterFromSignatures(const std::vector<uint64_t>& sigs,
                                             size_t num,
                                             util::ThreadPool* pool) const {
  const size_t t = params_.num_hashes;
  if (params_.amplification == Amplification::kAnd) {
    return ClusterBySignature(sigs, num, t, pool);
  }
  // Banding: items whose signatures agree on any whole band of r rows
  // union. Each item writes its own stripe of the num x B band keys.
  const size_t r = params_.rows_per_band;
  const size_t bands = t / r;
  std::vector<uint64_t> band_keys(num * bands);
  const size_t grain = std::max<size_t>(1024, 65536 / std::max<size_t>(1, t));
  util::ParallelFor(pool, 0, num, grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      for (size_t b = 0; b < bands; ++b) {
        uint64_t key = util::Mix64(b + 0x1234);
        for (size_t k = b * r; k < (b + 1) * r; ++k) {
          key = util::HashCombine(key, sigs[i * t + k]);
        }
        band_keys[i * bands + b] = key;
      }
    }
  });
  return ClusterByAnyKey(band_keys, num, bands);
}

double MinHashLsh::EstimateJaccard(const uint64_t* sig_a,
                                   const uint64_t* sig_b, size_t t) {
  if (t == 0) return 0.0;
  size_t agree = 0;
  for (size_t k = 0; k < t; ++k) {
    if (sig_a[k] == sig_b[k]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(t);
}

double MinHashLsh::BandingThreshold() const {
  const double bands =
      static_cast<double>(params_.num_hashes / params_.rows_per_band);
  if (bands <= 0) return 1.0;
  return std::pow(1.0 / bands, 1.0 / static_cast<double>(params_.rows_per_band));
}

double ExactJaccard(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace pghive::lsh

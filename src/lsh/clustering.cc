#include "lsh/clustering.h"

#include <unordered_map>
#include <utility>

#include "util/parallel_group_by.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace pghive::lsh {

ClusterSet::ClusterSet(std::vector<uint32_t> assignment)
    : assignment_(std::move(assignment)) {
  uint32_t max_id = 0;
  for (uint32_t c : assignment_) max_id = std::max(max_id, c);
  members_.resize(assignment_.empty() ? 0 : max_id + 1);
  for (uint32_t i = 0; i < assignment_.size(); ++i) {
    members_[assignment_[i]].push_back(i);
  }
}

ClusterSet ClusterBySignature(const std::vector<uint64_t>& signatures,
                              size_t num_items, size_t t,
                              util::ThreadPool* pool) {
  PGHIVE_CHECK(signatures.size() == num_items * t);
  std::vector<uint64_t> keys(num_items);
  const size_t grain = std::max<size_t>(1024, 65536 / std::max<size_t>(1, t));
  util::ParallelFor(pool, 0, num_items, grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      uint64_t h = 0x6a09e667f3bcc909ULL;
      for (size_t k = 0; k < t; ++k) {
        h = util::HashCombine(h, signatures[i * t + k]);
      }
      keys[i] = h;
    }
  });
  return ClusterSet(util::ParallelRadixGroupBy(keys, pool));
}

ClusterSet ClusterByAnyKey(const std::vector<uint64_t>& keys,
                           size_t num_items, size_t columns) {
  PGHIVE_CHECK(keys.size() == num_items * columns);
  util::UnionFind uf(num_items);
  std::unordered_map<uint64_t, uint32_t> bucket_first;
  for (size_t k = 0; k < columns; ++k) {
    bucket_first.clear();
    for (size_t i = 0; i < num_items; ++i) {
      auto [it, inserted] = bucket_first.try_emplace(keys[i * columns + k],
                                                     static_cast<uint32_t>(i));
      if (!inserted) uf.Union(it->second, static_cast<uint32_t>(i));
    }
  }
  return ClusterSet(uf.ComponentIds());
}

ClusterSet ClusterByAnyCollision(const std::vector<uint64_t>& signatures,
                                 size_t num_items, size_t t,
                                 util::ThreadPool* pool) {
  PGHIVE_CHECK(signatures.size() == num_items * t);
  std::vector<uint64_t> keys(num_items * t);
  const size_t grain = std::max<size_t>(1024, 65536 / std::max<size_t>(1, t));
  util::ParallelFor(pool, 0, num_items, grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      for (size_t k = 0; k < t; ++k) {
        keys[i * t + k] = util::HashCombine(k + 1, signatures[i * t + k]);
      }
    }
  });
  return ClusterByAnyKey(keys, num_items, t);
}

}  // namespace pghive::lsh

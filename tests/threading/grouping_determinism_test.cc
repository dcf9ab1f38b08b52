// The LSH grouping stage at every pool size, on real zoo feature matrices
// and on synthetic signatures. AND amplification (the parallel radix
// group-by) must match the serial scan byte for byte. OR amplification and
// MinHash banding share one serial union routine, so comparing thread
// counts would hold it against itself: instead both are held against a
// brute-force reference that joins items pairwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/vectorizer.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "embed/hash_embedder.h"
#include "lsh/clustering.h"
#include "lsh/euclidean_lsh.h"
#include "lsh/minhash.h"
#include "pg/batch.h"
#include "util/parallel_group_by.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pghive {
namespace {

constexpr size_t kThreadCounts[] = {2, 8};

void ExpectGroupingMatchesSerial(const std::vector<uint64_t>& sigs,
                                 size_t num, size_t t,
                                 const std::string& what) {
  auto and_serial = lsh::ClusterBySignature(sigs, num, t, nullptr);
  for (size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(lsh::ClusterBySignature(sigs, num, t, &pool).assignment(),
              and_serial.assignment())
        << what << " AND threads=" << threads;
  }
}

/// The OR partition by brute force: items i and j join when, for some band
/// b, their signatures agree on all of rows [b*r, (b+1)*r) — compared value
/// by value, with no hashing and no union-find. Components are found by a
/// search from each unvisited item in ascending order, so they are numbered
/// by first occurrence. r = 1 is OR amplification over T tables.
std::vector<uint32_t> ReferenceAnyBand(const std::vector<uint64_t>& sigs,
                                       size_t num, size_t t, size_t r) {
  const size_t bands = t / r;
  auto joined = [&](size_t i, size_t j) {
    for (size_t b = 0; b < bands; ++b) {
      const uint64_t* band_i = sigs.data() + i * t + b * r;
      if (std::equal(band_i, band_i + r, sigs.data() + j * t + b * r)) {
        return true;
      }
    }
    return false;
  };
  constexpr uint32_t kUnseen = UINT32_MAX;
  std::vector<uint32_t> component(num, kUnseen);
  uint32_t next = 0;
  for (size_t seed = 0; seed < num; ++seed) {
    if (component[seed] != kUnseen) continue;
    std::vector<size_t> stack = {seed};
    component[seed] = next;
    while (!stack.empty()) {
      const size_t i = stack.back();
      stack.pop_back();
      for (size_t j = 0; j < num; ++j) {
        if (component[j] == kUnseen && joined(i, j)) {
          component[j] = next;
          stack.push_back(j);
        }
      }
    }
    ++next;
  }
  return component;
}

/// Holds ClusterByAnyCollision (r = 1) or MinHash banding (r > 1) on
/// `sigs` against the reference with no pool and pools of 2 and 4 threads.
void ExpectAnyBandMatchesReference(const std::vector<uint64_t>& sigs,
                                   size_t num, size_t t, size_t r,
                                   const std::string& what) {
  const std::vector<uint32_t> expected = ReferenceAnyBand(sigs, num, t, r);
  lsh::MinHashParams params;
  params.num_hashes = t;
  params.rows_per_band = r;
  params.amplification = lsh::Amplification::kOr;
  const lsh::MinHashLsh banding(params);
  for (size_t threads : {0, 2, 4}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    if (r == 1) {
      EXPECT_EQ(lsh::ClusterByAnyCollision(sigs, num, t, pool.get())
                    .assignment(),
                expected)
          << what << " OR threads=" << threads;
    }
    EXPECT_EQ(banding.ClusterFromSignatures(sigs, num, pool.get())
                  .assignment(),
              expected)
        << what << " banding r=" << r << " threads=" << threads;
  }
}

/// num x (bands * r) signatures whose every band is one of `values` fixed
/// random patterns, so items collide on single bands and the collisions of
/// different bands chain items into larger components.
std::vector<uint64_t> ChainingSignatures(size_t num, size_t bands, size_t r,
                                         size_t values, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<uint64_t> patterns(bands * values * r);
  for (uint64_t& x : patterns) x = rng.NextU64();
  const size_t t = bands * r;
  std::vector<uint64_t> sigs(num * t);
  for (size_t i = 0; i < num; ++i) {
    for (size_t b = 0; b < bands; ++b) {
      const uint64_t* pattern =
          &patterns[(b * values + rng.NextBounded(values)) * r];
      std::copy_n(pattern, r, &sigs[i * t + b * r]);
    }
  }
  return sigs;
}

TEST(GroupingDeterminismTest, ZooFeatureSignaturesAcrossThreadCounts) {
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    datasets::Dataset dataset = datasets::Generate(spec, /*scale=*/0.1,
                                                   /*seed=*/23);
    embed::HashEmbedder embedder(&dataset.graph.vocab(), 8, 17);
    core::Vectorizer vectorizer(&dataset.graph, &embedder, nullptr);
    pg::GraphBatch batch = pg::FullBatch(dataset.graph);
    core::FeatureMatrix features = vectorizer.NodeFeatures(batch);
    if (features.num == 0) continue;
    lsh::EuclideanLshParams params;
    params.num_tables = 12;
    lsh::EuclideanLsh hasher(features.dim, params);
    auto sigs = hasher.HashAll(features.data, features.num);
    ExpectGroupingMatchesSerial(sigs, features.num, params.num_tables,
                                spec.name);
  }
}

TEST(GroupingDeterminismTest, MinHashBandingAcrossThreadCounts) {
  datasets::Dataset dataset =
      datasets::Generate(datasets::PoleSpec(), /*scale=*/0.2, /*seed=*/31);
  embed::HashEmbedder embedder(&dataset.graph.vocab(), 8, 17);
  core::Vectorizer vectorizer(&dataset.graph, &embedder, nullptr);
  pg::GraphBatch batch = pg::FullBatch(dataset.graph);
  core::ElementSetCsr csr = vectorizer.NodeSetSpans(batch);
  const lsh::SetSpans sets{csr.elements.data(), csr.offsets.data(),
                           csr.num()};
  lsh::MinHashParams params;
  params.num_hashes = 24;
  params.rows_per_band = 4;
  params.amplification = lsh::Amplification::kOr;
  lsh::MinHashLsh hasher(params);
  const std::vector<uint64_t> sigs = hasher.SignatureAll(sets, nullptr);
  const std::vector<uint32_t> expected =
      ReferenceAnyBand(sigs, sets.num_sets, params.num_hashes,
                       params.rows_per_band);
  for (size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(hasher.Cluster(sets, &pool).assignment(), expected)
        << "threads=" << threads;
  }
}

TEST(GroupingDeterminismTest, AnyCollisionAndBandingMatchBruteForce) {
  // From one giant component (few values per band) to mostly singletons
  // (many), with chains across tables in between: 300 items, 6 bands.
  for (size_t values : {4, 1000, 2000, 6000}) {
    for (size_t r : {1, 3}) {
      const size_t num = 300, bands = 6;
      const std::vector<uint64_t> sigs =
          ChainingSignatures(num, bands, r, values, 1000 + values + r);
      ExpectAnyBandMatchesReference(
          sigs, num, bands * r, r,
          "values=" + std::to_string(values) + " r=" + std::to_string(r));
    }
  }
}

TEST(GroupingDeterminismTest, AnyCollisionAndBandingMatchBruteForceOnZoo) {
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    datasets::Dataset dataset = datasets::Generate(spec, /*scale=*/0.05,
                                                   /*seed=*/29);
    embed::HashEmbedder embedder(&dataset.graph.vocab(), 8, 17);
    core::Vectorizer vectorizer(&dataset.graph, &embedder, nullptr);
    pg::GraphBatch batch = pg::FullBatch(dataset.graph);
    core::FeatureMatrix features = vectorizer.NodeFeatures(batch);
    if (features.num == 0) continue;
    // Narrow buckets, so each table splits the patterns and OR joins them
    // back across tables.
    lsh::EuclideanLshParams params;
    params.num_tables = 4;
    params.bucket_length = 0.05;
    lsh::EuclideanLsh elsh(features.dim, params);
    ExpectAnyBandMatchesReference(elsh.HashAll(features.data, features.num),
                                  features.num, params.num_tables, 1,
                                  spec.name + " ELSH");

    core::ElementSetCsr csr = vectorizer.NodeSetSpans(batch);
    lsh::MinHashParams mh;
    mh.num_hashes = 12;
    const lsh::MinHashLsh minhash(mh);
    ExpectAnyBandMatchesReference(
        minhash.SignatureAll(lsh::SetSpans{csr.elements.data(),
                                           csr.offsets.data(), csr.num()},
                             nullptr),
        csr.num(), mh.num_hashes, 4, spec.name + " MinHash");
  }
}

TEST(GroupingDeterminismTest, SkewedShardDistributionsAcrossThreadCounts) {
  // Degenerate radix distributions: all-identical keys and small unmixed
  // keys both route every item into a single shard, so the parallel path
  // runs with maximal imbalance — it must stay race-free (this suite is
  // under the TSan label) and serial-identical.
  const size_t n = 40000;
  std::vector<uint64_t> identical(n, util::Mix64(42));
  std::vector<uint64_t> unmixed(n);
  for (size_t i = 0; i < n; ++i) unmixed[i] = i % 97;
  for (const auto& keys : {identical, unmixed}) {
    auto serial = util::ParallelRadixGroupBy(keys, nullptr);
    for (size_t threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      EXPECT_EQ(util::ParallelRadixGroupBy(keys, &pool), serial)
          << "threads=" << threads;
    }
  }
}

TEST(GroupingDeterminismTest, LargeSyntheticSignaturesAcrossThreadCounts) {
  // Big enough that the radix path (not the serial cutoff) is exercised,
  // with heavy duplication so the renumber pass actually merges.
  const size_t num = 60000, t = 8, distinct = 500;
  util::Rng rng(5);
  std::vector<uint64_t> rows(distinct * t);
  for (auto& x : rows) x = rng.NextU64();
  std::vector<uint64_t> sigs(num * t);
  for (size_t i = 0; i < num; ++i) {
    const uint64_t* row = &rows[rng.NextBounded(distinct) * t];
    for (size_t k = 0; k < t; ++k) sigs[i * t + k] = row[k];
  }
  ExpectGroupingMatchesSerial(sigs, num, t, "synthetic");
}

}  // namespace
}  // namespace pghive

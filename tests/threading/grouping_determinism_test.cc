// The parallel LSH grouping stage (radix group-by, per-table/per-band
// bucket maps + ordered union replay) must produce cluster assignments
// byte-identical to the serial scan at every pool size — on real zoo
// feature matrices, not just synthetic keys.

#include <gtest/gtest.h>

#include <cstdint>
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
  auto or_serial = lsh::ClusterByAnyCollision(sigs, num, t, nullptr);
  for (size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(lsh::ClusterBySignature(sigs, num, t, &pool).assignment(),
              and_serial.assignment())
        << what << " AND threads=" << threads;
    EXPECT_EQ(lsh::ClusterByAnyCollision(sigs, num, t, &pool).assignment(),
              or_serial.assignment())
        << what << " OR threads=" << threads;
  }
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
  auto serial = hasher.Cluster(sets, nullptr);
  for (size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(hasher.Cluster(sets, &pool).assignment(), serial.assignment())
        << "threads=" << threads;
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

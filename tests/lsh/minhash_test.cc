#include "lsh/minhash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace pghive::lsh {
namespace {

// MinHashLsh takes sets as one CSR (SetSpans); the tests write them as one
// vector per set and lay them out with these helpers.

SetSpans SpansOf(const std::vector<std::vector<uint64_t>>& sets,
                 std::vector<uint64_t>* elements,
                 std::vector<uint32_t>* offsets) {
  elements->clear();
  offsets->assign(1, 0);
  for (const auto& set : sets) {
    elements->insert(elements->end(), set.begin(), set.end());
    offsets->push_back(static_cast<uint32_t>(elements->size()));
  }
  return SetSpans{elements->data(), offsets->data(), sets.size()};
}

/// The T-slot signature of one set.
std::vector<uint64_t> SignatureOf(const MinHashLsh& hasher,
                                  const std::vector<uint64_t>& set) {
  const uint32_t offsets[2] = {0, static_cast<uint32_t>(set.size())};
  return hasher.SignatureAll(SetSpans{set.data(), offsets, 1});
}

ClusterSet ClusterOf(const MinHashLsh& hasher,
                     const std::vector<std::vector<uint64_t>>& sets,
                     util::ThreadPool* pool = nullptr) {
  std::vector<uint64_t> elements;
  std::vector<uint32_t> offsets;
  return hasher.Cluster(SpansOf(sets, &elements, &offsets), pool);
}

TEST(MinHashTest, IdenticalSetsShareSignature) {
  MinHashLsh hasher(MinHashParams{});
  std::vector<uint64_t> set = {1, 5, 9};
  std::vector<uint64_t> s1 = SignatureOf(hasher, set);
  std::vector<uint64_t> s2 = SignatureOf(hasher, set);
  EXPECT_EQ(s1.size(), hasher.params().num_hashes);
  EXPECT_EQ(s1, s2);
}

TEST(MinHashTest, SignatureIsOrderInvariant) {
  MinHashLsh hasher(MinHashParams{});
  std::vector<uint64_t> a = {1, 5, 9};
  std::vector<uint64_t> b = {9, 1, 5};
  EXPECT_EQ(SignatureOf(hasher, a), SignatureOf(hasher, b));
}

TEST(MinHashTest, EmptySetsOnlyCollideWithEmptySets) {
  MinHashParams params;
  MinHashLsh hasher(params);
  std::vector<std::vector<uint64_t>> sets = {{}, {}, {1}, {1, 2}};
  auto clusters = ClusterOf(hasher, sets);
  EXPECT_EQ(clusters.cluster_of(0), clusters.cluster_of(1));
  EXPECT_NE(clusters.cluster_of(0), clusters.cluster_of(2));
}

TEST(MinHashTest, DisjointSetsRarelyAgree) {
  MinHashParams params;
  params.num_hashes = 32;
  MinHashLsh hasher(params);
  std::vector<uint64_t> a = {1, 2, 3, 4};
  std::vector<uint64_t> b = {100, 200, 300, 400};
  std::vector<uint64_t> sa = SignatureOf(hasher, a);
  std::vector<uint64_t> sb = SignatureOf(hasher, b);
  EXPECT_LT(MinHashLsh::EstimateJaccard(sa.data(), sb.data(), 32), 0.15);
}

// Property: the fraction of agreeing signature slots estimates Jaccard.
class JaccardEstimationTest : public ::testing::TestWithParam<double> {};

TEST_P(JaccardEstimationTest, SignatureAgreementTracksJaccard) {
  const double target = GetParam();
  // Build two sets with |A|=|B|=200 and controlled overlap:
  // J = o / (400 - o)  =>  o = 400 J / (1 + J).
  const size_t size = 200;
  size_t overlap = static_cast<size_t>(2.0 * size * target / (1.0 + target));
  std::vector<uint64_t> a, b;
  for (size_t i = 0; i < size; ++i) a.push_back(i);
  for (size_t i = 0; i < overlap; ++i) b.push_back(i);
  for (size_t i = 0; i < size - overlap; ++i) b.push_back(10000 + i);
  double exact = ExactJaccard(
      [&] {
        auto s = a;
        std::sort(s.begin(), s.end());
        return s;
      }(),
      [&] {
        auto s = b;
        std::sort(s.begin(), s.end());
        return s;
      }());

  MinHashParams params;
  params.num_hashes = 256;  // Many hashes for a tight estimate.
  MinHashLsh hasher(params);
  std::vector<uint64_t> sa = SignatureOf(hasher, a);
  std::vector<uint64_t> sb = SignatureOf(hasher, b);
  double estimate = MinHashLsh::EstimateJaccard(sa.data(), sb.data(), 256);
  EXPECT_NEAR(estimate, exact, 0.08) << "target J = " << target;
}

INSTANTIATE_TEST_SUITE_P(Similarities, JaccardEstimationTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(MinHashTest, AndClusteringGroupsIdenticalSetsOnly) {
  MinHashParams params;
  params.amplification = Amplification::kAnd;
  MinHashLsh hasher(params);
  std::vector<std::vector<uint64_t>> sets = {{1, 2}, {1, 2}, {1, 2, 3}};
  auto clusters = ClusterOf(hasher, sets);
  EXPECT_EQ(clusters.cluster_of(0), clusters.cluster_of(1));
  EXPECT_NE(clusters.cluster_of(0), clusters.cluster_of(2));
}

TEST(MinHashTest, BandingMergesHighlySimilarSets) {
  MinHashParams params;
  params.num_hashes = 24;
  params.rows_per_band = 4;
  params.amplification = Amplification::kOr;
  MinHashLsh hasher(params);
  // 19/21 overlap: J = 0.905, above the banding threshold (1/6)^(1/4)=0.64.
  std::vector<uint64_t> big;
  for (uint64_t i = 0; i < 20; ++i) big.push_back(i);
  auto near = big;
  near[0] = 999;
  // Disjoint set stays apart.
  std::vector<uint64_t> other = {500, 501, 502, 503, 504};
  auto clusters = ClusterOf(hasher, {big, near, other});
  EXPECT_EQ(clusters.cluster_of(0), clusters.cluster_of(1));
  EXPECT_NE(clusters.cluster_of(0), clusters.cluster_of(2));
}

TEST(MinHashTest, BandingThresholdFormula) {
  MinHashParams params;
  params.num_hashes = 24;
  params.rows_per_band = 4;  // 6 bands.
  MinHashLsh hasher(params);
  EXPECT_NEAR(hasher.BandingThreshold(), std::pow(1.0 / 6.0, 0.25), 1e-9);
}

TEST(MinHashTest, RowsPerBandClampedToNumHashes) {
  MinHashParams params;
  params.num_hashes = 8;
  params.rows_per_band = 100;
  MinHashLsh hasher(params);
  EXPECT_EQ(hasher.params().rows_per_band, 8u);
}

// ---- Banding edge cases (serial and pooled paths must agree) ------------

MinHashLsh BandingHasher(size_t num_hashes = 12, size_t rows_per_band = 3) {
  MinHashParams params;
  params.num_hashes = num_hashes;
  params.rows_per_band = rows_per_band;
  params.amplification = Amplification::kOr;
  return MinHashLsh(params);
}

TEST(MinHashBandingEdgeCaseTest, EmptyInput) {
  MinHashLsh hasher = BandingHasher();
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    auto clusters = ClusterOf(hasher, {}, p);
    EXPECT_EQ(clusters.num_items(), 0u);
    EXPECT_EQ(clusters.num_clusters(), 0u);
  }
}

TEST(MinHashBandingEdgeCaseTest, SingleSet) {
  MinHashLsh hasher = BandingHasher();
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    auto clusters = ClusterOf(hasher, {{1, 2, 3}}, p);
    EXPECT_EQ(clusters.num_clusters(), 1u);
    EXPECT_EQ(clusters.cluster_of(0), 0u);
  }
}

TEST(MinHashBandingEdgeCaseTest, AllSetsCollide) {
  MinHashLsh hasher = BandingHasher();
  std::vector<std::vector<uint64_t>> sets(100, {4, 8, 15, 16, 23, 42});
  util::ThreadPool pool(8);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    auto clusters = ClusterOf(hasher, sets, p);
    EXPECT_EQ(clusters.num_clusters(), 1u);
    EXPECT_EQ(clusters.members(0).size(), sets.size());
  }
}

TEST(MinHashBandingEdgeCaseTest, SingleHashSingleRowBand) {
  // t=1, r=1: one band of one row; sets cluster iff their single minhash
  // slots agree.
  MinHashLsh hasher = BandingHasher(/*num_hashes=*/1, /*rows_per_band=*/1);
  std::vector<std::vector<uint64_t>> sets = {{1, 2}, {1, 2}, {900}};
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    auto clusters = ClusterOf(hasher, sets, p);
    EXPECT_EQ(clusters.cluster_of(0), clusters.cluster_of(1));
    EXPECT_NE(clusters.cluster_of(0), clusters.cluster_of(2));
  }
}

// ---- Many sets in one span ---------------------------------------------
//
// Walking one contiguous element array, each set's signature and cluster
// must be what that set (one of the nested vectors) gets on its own —
// including the empty-set sentinel rows.

TEST(MinHashSpanTest, SpanSignaturesMatchNestedSignatures) {
  util::Rng rng(31);
  std::vector<std::vector<uint64_t>> sets(257);
  for (size_t i = 1; i < sets.size(); ++i) {  // sets[0] stays empty.
    const size_t n = rng.NextBounded(9);
    for (size_t e = 0; e < n; ++e) sets[i].push_back(rng.NextBounded(400));
  }
  MinHashParams params;
  params.num_hashes = 16;
  MinHashLsh hasher(params);
  std::vector<uint64_t> elements;
  std::vector<uint32_t> offsets;
  SetSpans spans = SpansOf(sets, &elements, &offsets);
  std::vector<uint64_t> nested;
  for (const auto& set : sets) {
    const std::vector<uint64_t> sig = SignatureOf(hasher, set);
    nested.insert(nested.end(), sig.begin(), sig.end());
  }
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    EXPECT_EQ(hasher.SignatureAll(spans, p), nested);
  }
}

TEST(MinHashSpanTest, SpanClusteringMatchesNestedClustering) {
  util::Rng rng(37);
  std::vector<std::vector<uint64_t>> sets(180);
  for (auto& set : sets) {
    // Few distinct shapes so real collisions happen. Distinct shapes are
    // disjoint, so they share no signature slot: two sets cluster together
    // exactly when they are equal, under AND and banding alike.
    const size_t shape = rng.NextBounded(6);
    for (size_t e = 0; e <= shape; ++e) set.push_back(shape * 10 + e);
  }
  sets[17].clear();
  sets[99].clear();
  std::vector<uint64_t> elements;
  std::vector<uint32_t> offsets;
  SetSpans spans = SpansOf(sets, &elements, &offsets);
  for (Amplification amp : {Amplification::kAnd, Amplification::kOr}) {
    MinHashParams params;
    params.num_hashes = 12;
    params.rows_per_band = 3;
    params.amplification = amp;
    MinHashLsh hasher(params);
    auto flat = hasher.Cluster(spans);
    ASSERT_EQ(flat.num_items(), sets.size());
    for (size_t i = 0; i < sets.size(); ++i) {
      for (size_t j = 0; j < sets.size(); ++j) {
        EXPECT_EQ(flat.cluster_of(i) == flat.cluster_of(j), sets[i] == sets[j])
            << i << " " << j;
      }
    }
  }
}

TEST(MinHashSpanTest, EmptySpanInput) {
  MinHashLsh hasher = BandingHasher();
  auto clusters = hasher.Cluster(SetSpans{nullptr, nullptr, 0});
  EXPECT_EQ(clusters.num_items(), 0u);
}

TEST(ExactJaccardTest, Basics) {
  EXPECT_DOUBLE_EQ(ExactJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(ExactJaccard({1}, {}), 0.0);
  EXPECT_DOUBLE_EQ(ExactJaccard({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(ExactJaccard({1, 2}, {2, 3}), 1.0 / 3.0);
}

}  // namespace
}  // namespace pghive::lsh

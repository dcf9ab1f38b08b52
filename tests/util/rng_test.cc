#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace pghive::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
  Rng rng2(14);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(rng2.NextBool(0.0));
}

TEST(RngTest, PoissonMeanSmallLambda) {
  Rng rng(15);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.NextPoisson(2.5);
  EXPECT_NEAR(sum / 20000, 2.5, 0.1);
}

TEST(RngTest, PoissonMeanLargeLambda) {
  Rng rng(16);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) sum += rng.NextPoisson(50.0);
  EXPECT_NEAR(sum / 5000, 50.0, 1.0);
}

TEST(RngTest, PoissonZeroLambda) {
  Rng rng(17);
  EXPECT_EQ(rng.NextPoisson(0.0), 0);
  EXPECT_EQ(rng.NextPoisson(-1.0), 0);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(19);
  auto sample = rng.SampleWithoutReplacement(100, 40);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleFullPopulationIsPermutation) {
  Rng rng(21);
  auto perm = rng.Permutation(50);
  std::set<size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(Mix64Test, InjectiveOnSmallRange) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(HashCombineTest, OrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

class PermutationPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, uint64_t>> {};

TEST_P(PermutationPropertyTest, EveryElementExactlyOnce) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  auto perm = rng.Permutation(n);
  ASSERT_EQ(perm.size(), n);
  std::vector<bool> seen(n, false);
  for (size_t p : perm) {
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PermutationPropertyTest,
    ::testing::Values(std::make_pair<size_t, uint64_t>(0, 1),
                      std::make_pair<size_t, uint64_t>(1, 2),
                      std::make_pair<size_t, uint64_t>(10, 3),
                      std::make_pair<size_t, uint64_t>(1000, 4)));

}  // namespace
}  // namespace pghive::util

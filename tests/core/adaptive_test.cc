#include "core/adaptive.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace pghive::core {
namespace {

FeatureMatrix RandomFeatures(size_t num, size_t dim, double spread,
                             uint64_t seed) {
  util::Rng rng(seed);
  FeatureMatrix m;
  m.num = num;
  m.dim = dim;
  m.data.resize(num * dim);
  for (auto& x : m.data) {
    x = static_cast<float>(spread * rng.NextGaussian());
  }
  return m;
}

TEST(AlphaTest, PaperThresholds) {
  EXPECT_DOUBLE_EQ(AlphaForLabelCount(0), 0.8);
  EXPECT_DOUBLE_EQ(AlphaForLabelCount(3), 0.8);
  EXPECT_DOUBLE_EQ(AlphaForLabelCount(4), 1.0);
  EXPECT_DOUBLE_EQ(AlphaForLabelCount(10), 1.0);
  EXPECT_DOUBLE_EQ(AlphaForLabelCount(11), 1.5);
  EXPECT_DOUBLE_EQ(AlphaForLabelCount(100), 1.5);
}

TEST(DistanceScaleTest, TracksSpread) {
  auto tight = RandomFeatures(500, 16, 0.1, 1);
  auto wide = RandomFeatures(500, 16, 2.0, 2);
  double mu_tight = EstimateDistanceScale(tight, 1000, 500, 3);
  double mu_wide = EstimateDistanceScale(wide, 1000, 500, 3);
  EXPECT_GT(mu_wide, mu_tight * 5);
  // Gaussian spread s in dim d: E[distance] ~ s * sqrt(2d).
  EXPECT_NEAR(mu_wide, 2.0 * std::sqrt(2.0 * 16), 1.5);
}

TEST(DistanceScaleTest, DegenerateInputs) {
  FeatureMatrix empty;
  EXPECT_EQ(EstimateDistanceScale(empty, 100, 100, 1), 1.0);
  auto single = RandomFeatures(1, 4, 1.0, 4);
  EXPECT_EQ(EstimateDistanceScale(single, 100, 100, 1), 1.0);
  // All-identical points: scale floors to 1.0 rather than 0.
  FeatureMatrix constant;
  constant.num = 10;
  constant.dim = 4;
  constant.data.assign(40, 3.0f);
  EXPECT_EQ(EstimateDistanceScale(constant, 100, 100, 1), 1.0);
}

TEST(AdaptiveTest, BucketScalesWithMu) {
  auto tight = RandomFeatures(1000, 16, 0.1, 5);
  auto wide = RandomFeatures(1000, 16, 2.0, 6);
  auto c_tight = ChooseNodeParams(tight, 5);
  auto c_wide = ChooseNodeParams(wide, 5);
  EXPECT_GT(c_wide.bucket_length, c_tight.bucket_length * 5);
  // b = 1.2 * mu * alpha with alpha(5 labels) = 1.
  EXPECT_NEAR(c_wide.bucket_length, 1.2 * c_wide.mu, 1e-9);
}

TEST(AdaptiveTest, AlphaAdjustsBucket) {
  auto features = RandomFeatures(1000, 16, 1.0, 7);
  auto few = ChooseNodeParams(features, 2);    // alpha 0.8.
  auto many = ChooseNodeParams(features, 20);  // alpha 1.5.
  EXPECT_LT(few.bucket_length, many.bucket_length);
  EXPECT_NEAR(many.bucket_length / few.bucket_length, 1.5 / 0.8, 1e-6);
}

TEST(AdaptiveTest, TablesAreClamped) {
  auto features = RandomFeatures(200, 8, 1.0, 8);
  auto choice = ChooseNodeParams(features, 5);
  EXPECT_GE(choice.num_tables, kMinTables);
  EXPECT_LE(choice.num_tables, kMaxTables);
}

TEST(AdaptiveTest, EdgeAlphaIsSmaller) {
  auto features = RandomFeatures(1000, 16, 1.0, 9);
  auto node = ChooseNodeParams(features, 5);
  auto edge = ChooseEdgeParams(features, 5);
  EXPECT_LT(edge.bucket_length, node.bucket_length);
  EXPECT_NEAR(edge.bucket_length / node.bucket_length, kEdgeAlphaScale,
              1e-6);
}

TEST(AdaptiveTest, DeterministicInSeed) {
  auto features = RandomFeatures(1000, 16, 1.0, 10);
  auto a = ChooseNodeParams(features, 5);
  auto b = ChooseNodeParams(features, 5);
  EXPECT_EQ(a.bucket_length, b.bucket_length);
  EXPECT_EQ(a.num_tables, b.num_tables);
}

class AdaptiveSizeSweep : public ::testing::TestWithParam<size_t> {};

// Property: the choice is always valid for any population size.
TEST_P(AdaptiveSizeSweep, AlwaysValid) {
  auto features = RandomFeatures(GetParam(), 8, 1.0, 11);
  auto choice = ChooseNodeParams(features, 7);
  EXPECT_GT(choice.bucket_length, 0.0);
  EXPECT_GE(choice.num_tables, 1u);
  auto edge_choice = ChooseEdgeParams(features, 7);
  EXPECT_GT(edge_choice.bucket_length, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdaptiveSizeSweep,
                         ::testing::Values(2, 10, 100, 5000));

}  // namespace
}  // namespace pghive::core

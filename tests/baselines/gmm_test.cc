#include "baselines/gmm.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace pghive::baselines {
namespace {

// Two well-separated Gaussian blobs.
std::vector<float> TwoBlobs(size_t per_blob, size_t dim, double separation,
                            uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> data;
  for (size_t blob = 0; blob < 2; ++blob) {
    for (size_t i = 0; i < per_blob; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        double center = blob == 0 ? 0.0 : separation;
        data.push_back(static_cast<float>(center + 0.3 * rng.NextGaussian()));
      }
    }
  }
  return data;
}

TEST(GmmTest, RecoversSeparableBlobs) {
  const size_t per_blob = 100, dim = 4;
  auto data = TwoBlobs(per_blob, dim, 10.0, 1);
  GmmFit fit = GaussianMixture::Fit(data, 2 * per_blob, dim, 2);
  auto assign = GaussianMixture::Assign(fit, data, 2 * per_blob);
  // All of blob 0 in one component, all of blob 1 in the other.
  for (size_t i = 1; i < per_blob; ++i) {
    EXPECT_EQ(assign[i], assign[0]);
  }
  for (size_t i = per_blob + 1; i < 2 * per_blob; ++i) {
    EXPECT_EQ(assign[i], assign[per_blob]);
  }
  EXPECT_NE(assign[0], assign[per_blob]);
}

TEST(GmmTest, WeightsApproximateBlobShares) {
  auto data = TwoBlobs(100, 4, 10.0, 2);
  GmmFit fit = GaussianMixture::Fit(data, 200, 4, 2);
  EXPECT_NEAR(fit.weights[0], 0.5, 0.05);
  EXPECT_NEAR(fit.weights[1], 0.5, 0.05);
  EXPECT_NEAR(fit.weights[0] + fit.weights[1], 1.0, 1e-6);
}

TEST(GmmTest, LogLikelihoodImprovesWithBetterModel) {
  auto data = TwoBlobs(100, 4, 10.0, 3);
  GmmFit k1 = GaussianMixture::Fit(data, 200, 4, 1);
  GmmFit k2 = GaussianMixture::Fit(data, 200, 4, 2);
  EXPECT_GT(k2.log_likelihood, k1.log_likelihood);
  // And BIC prefers the 2-component model for clearly bimodal data.
  EXPECT_LT(k2.Bic(200), k1.Bic(200));
}

TEST(GmmTest, BicPenalizesOverfitting) {
  // Unimodal data: BIC should not prefer many components strongly.
  util::Rng rng(4);
  const size_t n = 200, dim = 4;
  std::vector<float> data(n * dim);
  for (auto& x : data) x = static_cast<float>(rng.NextGaussian());
  GmmFit k1 = GaussianMixture::Fit(data, n, dim, 1);
  GmmFit k4 = GaussianMixture::Fit(data, n, dim, 4);
  // The parameter penalty grows: BIC(k4) - (-2 ll4) > BIC(k1) - (-2 ll1).
  double penalty1 = k1.Bic(n) + 2 * k1.log_likelihood;
  double penalty4 = k4.Bic(n) + 2 * k4.log_likelihood;
  EXPECT_GT(penalty4, penalty1);
}

TEST(GmmTest, KClampedToPopulation) {
  std::vector<float> data = {0.f, 1.f, 2.f};  // 3 points, dim 1.
  GmmFit fit = GaussianMixture::Fit(data, 3, 1, 10);
  EXPECT_LE(fit.k, 3u);
}

TEST(GmmTest, DeterministicInSeed) {
  auto data = TwoBlobs(50, 4, 5.0, 5);
  GmmFit a = GaussianMixture::Fit(data, 100, 4, 2);
  GmmFit b = GaussianMixture::Fit(data, 100, 4, 2);
  EXPECT_EQ(a.means, b.means);
  EXPECT_EQ(a.log_likelihood, b.log_likelihood);
}

TEST(GmmTest, InitMeansAreUsed) {
  auto data = TwoBlobs(50, 2, 8.0, 6);
  std::vector<double> init = {0.0, 0.0, 8.0, 8.0};
  GmmFit fit = GaussianMixture::FitWithInit(data, 100, 2, 2, init);
  // Means stay near the blob centers.
  double m0 = fit.means[0], m1 = fit.means[2];
  if (m0 > m1) std::swap(m0, m1);
  EXPECT_NEAR(m0, 0.0, 0.5);
  EXPECT_NEAR(m1, 8.0, 0.5);
}

TEST(GmmTest, IterationsBounded) {
  auto data = TwoBlobs(50, 4, 1.0, 7);  // Overlapping: slow convergence.
  GmmFit fit = GaussianMixture::Fit(data, 100, 4, 2);
  EXPECT_LE(fit.iterations, GaussianMixture::kMaxIterations);
}

}  // namespace
}  // namespace pghive::baselines

#include "baselines/gmm.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/status.h"

namespace pghive::baselines {

double GmmFit::Bic(size_t n) const {
  double params = static_cast<double>(k) * (2.0 * static_cast<double>(dim)) +
                  static_cast<double>(k) - 1.0;
  return -2.0 * log_likelihood + params * std::log(std::max<size_t>(n, 2));
}

namespace {

// Log density of a diagonal Gaussian at x.
double LogGaussian(const float* x, const double* mean, const double* var,
                   size_t dim) {
  double log_p = -0.5 * static_cast<double>(dim) * std::log(2.0 * M_PI);
  for (size_t d = 0; d < dim; ++d) {
    double diff = static_cast<double>(x[d]) - mean[d];
    log_p += -0.5 * std::log(var[d]) - 0.5 * diff * diff / var[d];
  }
  return log_p;
}

double LogSumExp(const std::vector<double>& xs) {
  double m = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(m)) return m;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - m);
  return m + std::log(sum);
}

}  // namespace

GmmFit GaussianMixture::Fit(const std::vector<float>& data, size_t num,
                            size_t dim, size_t k) {
  return FitWithInit(data, num, dim, k, {});
}

GmmFit GaussianMixture::FitWithInit(const std::vector<float>& data,
                                    size_t num, size_t dim, size_t k,
                                    const std::vector<double>& init_means) {
  PGHIVE_CHECK(data.size() == num * dim);
  PGHIVE_CHECK(k >= 1);
  k = std::min(k, num);

  GmmFit fit;
  fit.k = k;
  fit.dim = dim;
  fit.means.assign(k * dim, 0.0);
  fit.variances.assign(k * dim, 1.0);
  fit.weights.assign(k, 1.0 / static_cast<double>(k));

  // Global variance for initialization.
  std::vector<double> global_mean(dim, 0.0);
  for (size_t i = 0; i < num; ++i) {
    for (size_t d = 0; d < dim; ++d) global_mean[d] += data[i * dim + d];
  }
  for (auto& m : global_mean) m /= static_cast<double>(num);
  std::vector<double> global_var(dim, kMinVariance);
  for (size_t i = 0; i < num; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      double diff = data[i * dim + d] - global_mean[d];
      global_var[d] += diff * diff / static_cast<double>(num);
    }
  }

  if (init_means.size() == k * dim) {
    for (size_t c = 0; c < k; ++c) {
      for (size_t d = 0; d < dim; ++d) {
        fit.means[c * dim + d] = init_means[c * dim + d];
        fit.variances[c * dim + d] = global_var[d];
      }
    }
  } else {
    util::Rng rng(kSeed);
    auto seeds = rng.SampleWithoutReplacement(num, k);
    for (size_t c = 0; c < k; ++c) {
      for (size_t d = 0; d < dim; ++d) {
        fit.means[c * dim + d] = data[seeds[c] * dim + d];
        fit.variances[c * dim + d] = global_var[d];
      }
    }
  }

  std::vector<double> resp(num * k);
  std::vector<double> log_probs(k);
  double prev_ll = -1e300;
  for (size_t iter = 1; iter <= kMaxIterations; ++iter) {
    fit.iterations = iter;
    // E step.
    double ll = 0.0;
    for (size_t i = 0; i < num; ++i) {
      for (size_t c = 0; c < k; ++c) {
        log_probs[c] = std::log(std::max(fit.weights[c], 1e-12)) +
                       LogGaussian(&data[i * dim], &fit.means[c * dim],
                                   &fit.variances[c * dim], dim);
      }
      double lse = LogSumExp(log_probs);
      ll += lse;
      for (size_t c = 0; c < k; ++c) {
        resp[i * k + c] = std::exp(log_probs[c] - lse);
      }
    }
    fit.log_likelihood = ll;
    // M step.
    for (size_t c = 0; c < k; ++c) {
      double nk = 1e-9;
      for (size_t i = 0; i < num; ++i) nk += resp[i * k + c];
      fit.weights[c] = nk / static_cast<double>(num);
      for (size_t d = 0; d < dim; ++d) {
        double mean = 0.0;
        for (size_t i = 0; i < num; ++i) {
          mean += resp[i * k + c] * data[i * dim + d];
        }
        mean /= nk;
        double var = kMinVariance;
        for (size_t i = 0; i < num; ++i) {
          double diff = data[i * dim + d] - mean;
          var += resp[i * k + c] * diff * diff / nk;
        }
        fit.means[c * dim + d] = mean;
        fit.variances[c * dim + d] = var;
      }
    }
    if (std::abs(ll - prev_ll) < kTolerance * (std::abs(prev_ll) + 1.0)) {
      break;
    }
    prev_ll = ll;
  }
  return fit;
}

std::vector<uint32_t> GaussianMixture::Assign(const GmmFit& fit,
                                              const std::vector<float>& data,
                                              size_t num) {
  std::vector<uint32_t> assignment(num, 0);
  for (size_t i = 0; i < num; ++i) {
    double best = -1e300;
    uint32_t best_c = 0;
    for (size_t c = 0; c < fit.k; ++c) {
      double lp = std::log(std::max(fit.weights[c], 1e-12)) +
                  LogGaussian(&data[i * fit.dim], &fit.means[c * fit.dim],
                              &fit.variances[c * fit.dim], fit.dim);
      if (lp > best) {
        best = lp;
        best_c = static_cast<uint32_t>(c);
      }
    }
    assignment[i] = best_c;
  }
  return assignment;
}

}  // namespace pghive::baselines

#ifndef PGHIVE_BASELINES_GMM_H_
#define PGHIVE_BASELINES_GMM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pghive::baselines {

/// Result of one EM fit.
struct GmmFit {
  std::vector<double> means;      ///< k x dim.
  std::vector<double> variances;  ///< k x dim.
  std::vector<double> weights;    ///< k.
  double log_likelihood = 0.0;
  size_t iterations = 0;
  size_t k = 0;
  size_t dim = 0;

  /// BIC = -2 logL + p ln n with p = k(2 dim) + (k-1) free parameters.
  double Bic(size_t n) const;
};

/// A diagonal-covariance Gaussian mixture model fit by EM, the clustering
/// core of the GMMSchema baseline (Bonifati et al., EDBT 2022). Means are
/// initialized from k distinct random data points.
class GaussianMixture {
 public:
  /// EM's fixed settings. EM stops after kMaxIterations, or once the
  /// log-likelihood changes by less than kTolerance relative to its value.
  static constexpr size_t kMaxIterations = 25;
  static constexpr double kTolerance = 1e-3;
  static constexpr double kMinVariance = 1e-2;  ///< Variance floor.
  static constexpr uint64_t kSeed = 17;  ///< Draws Fit's initial means.

  /// Fits k components to `num` row-major points of dimension `dim`.
  static GmmFit Fit(const std::vector<float>& data, size_t num, size_t dim,
                    size_t k);

  /// Fits with caller-provided initial means (k x dim); variances start at
  /// the global per-dimension variance. Used by GMMSchema to seed one
  /// component per label group.
  static GmmFit FitWithInit(const std::vector<float>& data, size_t num,
                            size_t dim, size_t k,
                            const std::vector<double>& init_means);

  /// Hard-assigns each point to its most probable component.
  static std::vector<uint32_t> Assign(const GmmFit& fit,
                                      const std::vector<float>& data,
                                      size_t num);
};

}  // namespace pghive::baselines

#endif  // PGHIVE_BASELINES_GMM_H_

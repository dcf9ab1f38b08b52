#ifndef PGHIVE_CORE_ADAPTIVE_H_
#define PGHIVE_CORE_ADAPTIVE_H_

#include <cstdint>
#include <vector>

#include "core/vectorizer.h"

namespace pghive::core {

/// The adaptive ELSH parameter choice of §4.2 plus its intermediates, so the
/// Fig. 6 bench can show where the adaptive point lands.
struct AdaptiveChoice {
  double mu = 0.0;            ///< Mean sampled pairwise Euclidean distance.
  double alpha = 1.0;         ///< Label-count adjustment factor.
  double bucket_length = 1.0; ///< b = 1.2 * mu * alpha (floored at epsilon).
  size_t num_tables = 16;     ///< T from the size/label heuristic, clamped.
};

/// The adaptive strategy's fixed constants (§4.2).
constexpr double kBaseFactor = 1.2;    ///< b_base = kBaseFactor * mu.
constexpr size_t kSamplePairs = 2000;  ///< Pairs used to estimate mu.
constexpr size_t kMinSample = 10000;   ///< "1% of the graph or at least 10k".
constexpr size_t kMinTables = 15;  ///< Clamp floor for T (paper: T in [15,35]).
constexpr size_t kMaxTables = 40;  ///< Clamp ceiling for T.
/// Edges benefit from slightly smaller alpha (§4.2, "practical ranges"):
/// their 3d-embedding block makes inter-type distances smaller relative
/// to mu, so buckets must be narrower to keep types separated.
constexpr double kEdgeAlphaScale = 0.5;

/// What a caller chooses of the adaptive strategy: the sampling seed.
struct AdaptiveOptions {
  uint64_t seed = 7;
};

/// Chooses (b, T) for node clustering: samples max(1% of N, kMinSample)
/// elements (capped at N), estimates the distance scale mu over random
/// pairs, sets b = 1.2*mu adjusted by the label-count factor
///   alpha = 0.8 (L<=3), 1.0 (4<=L<=10), 1.5 (L>10),
/// and T = b_base * max(5, alpha*min(25, log10 N)), clamped.
///
/// The choice is over rows, and N counts rows. Row i's vector is
/// `patterns.row(row_patterns[i])`: the sample draws rows through that map,
/// so the choice equals the one over the expanded per-row matrix bit for
/// bit. The FeatureMatrix-only overloads are the identity map.
AdaptiveChoice ChooseNodeParams(const FeatureMatrix& patterns,
                                const std::vector<uint32_t>& row_patterns,
                                size_t num_distinct_labels,
                                const AdaptiveOptions& options = {});
AdaptiveChoice ChooseNodeParams(const FeatureMatrix& features,
                                size_t num_distinct_labels,
                                const AdaptiveOptions& options = {});

/// Edge variant: T = b_base * max(3, alpha*min(20, log10 E)).
AdaptiveChoice ChooseEdgeParams(const FeatureMatrix& patterns,
                                const std::vector<uint32_t>& row_patterns,
                                size_t num_distinct_labels,
                                const AdaptiveOptions& options = {});
AdaptiveChoice ChooseEdgeParams(const FeatureMatrix& features,
                                size_t num_distinct_labels,
                                const AdaptiveOptions& options = {});

/// The label-count factor alpha (exposed for tests).
double AlphaForLabelCount(size_t num_labels);

/// Mean Euclidean distance over up to `pairs` random row pairs, row i read
/// through `row_patterns` as above.
double EstimateDistanceScale(const FeatureMatrix& patterns,
                             const std::vector<uint32_t>& row_patterns,
                             size_t pairs, size_t max_sample, uint64_t seed);
double EstimateDistanceScale(const FeatureMatrix& features, size_t pairs,
                             size_t max_sample, uint64_t seed);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_ADAPTIVE_H_

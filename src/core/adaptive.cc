#include "core/adaptive.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace pghive::core {

double AlphaForLabelCount(size_t num_labels) {
  if (num_labels <= 3) return 0.8;
  if (num_labels <= 10) return 1.0;
  return 1.5;
}

double EstimateDistanceScale(const FeatureMatrix& patterns,
                             const std::vector<uint32_t>& row_patterns,
                             size_t pairs, size_t max_sample, uint64_t seed) {
  const size_t num_rows = row_patterns.size();
  if (num_rows < 2) return 1.0;
  util::Rng rng(seed);
  size_t sample = std::min(num_rows, max_sample);
  auto idx = rng.SampleWithoutReplacement(num_rows, sample);
  double total = 0.0;
  size_t counted = 0;
  for (size_t p = 0; p < pairs; ++p) {
    size_t a = idx[rng.NextBounded(idx.size())];
    size_t b = idx[rng.NextBounded(idx.size())];
    if (a == b) continue;
    const float* ra = patterns.row(row_patterns[a]);
    const float* rb = patterns.row(row_patterns[b]);
    double d2 = 0.0;
    for (size_t d = 0; d < patterns.dim; ++d) {
      double diff = static_cast<double>(ra[d]) - rb[d];
      d2 += diff * diff;
    }
    total += std::sqrt(d2);
    ++counted;
  }
  if (counted == 0) return 1.0;
  double mu = total / static_cast<double>(counted);
  return mu > 1e-9 ? mu : 1.0;
}

double EstimateDistanceScale(const FeatureMatrix& features, size_t pairs,
                             size_t max_sample, uint64_t seed) {
  return EstimateDistanceScale(
      features, pg::PatternIndex::Identity(features.num).row_patterns, pairs,
      max_sample, seed);
}

namespace {

AdaptiveChoice Choose(const FeatureMatrix& patterns,
                      const std::vector<uint32_t>& row_patterns,
                      size_t num_labels, const AdaptiveOptions& options,
                      bool edges) {
  AdaptiveChoice choice;
  const size_t num_rows = row_patterns.size();
  // "randomly sample 1% of the graph, or at least 10k nodes (whichever is
  // larger)" — capped at the population size.
  size_t want = std::max(num_rows / 100, options.min_sample);
  choice.mu = EstimateDistanceScale(patterns, row_patterns,
                                    options.sample_pairs, want, options.seed);
  choice.alpha = AlphaForLabelCount(num_labels);
  if (edges) choice.alpha *= options.edge_alpha_scale;
  double b_base = options.base_factor * choice.mu;
  choice.bucket_length = std::max(1e-6, b_base * choice.alpha);

  double n = static_cast<double>(std::max<size_t>(num_rows, 2));
  double log_n = std::log10(n);
  double t_raw;
  if (edges) {
    t_raw = b_base * std::max(3.0, choice.alpha * std::min(20.0, log_n));
  } else {
    t_raw = b_base * std::max(5.0, choice.alpha * std::min(25.0, log_n));
  }
  size_t t = static_cast<size_t>(std::lround(t_raw));
  t = std::clamp(t, options.min_tables, options.max_tables);
  choice.num_tables = t;
  return choice;
}

}  // namespace

AdaptiveChoice ChooseNodeParams(const FeatureMatrix& patterns,
                                const std::vector<uint32_t>& row_patterns,
                                size_t num_distinct_labels,
                                const AdaptiveOptions& options) {
  return Choose(patterns, row_patterns, num_distinct_labels, options,
                /*edges=*/false);
}

AdaptiveChoice ChooseNodeParams(const FeatureMatrix& features,
                                size_t num_distinct_labels,
                                const AdaptiveOptions& options) {
  return ChooseNodeParams(
      features, pg::PatternIndex::Identity(features.num).row_patterns,
      num_distinct_labels, options);
}

AdaptiveChoice ChooseEdgeParams(const FeatureMatrix& patterns,
                                const std::vector<uint32_t>& row_patterns,
                                size_t num_distinct_labels,
                                const AdaptiveOptions& options) {
  return Choose(patterns, row_patterns, num_distinct_labels, options,
                /*edges=*/true);
}

AdaptiveChoice ChooseEdgeParams(const FeatureMatrix& features,
                                size_t num_distinct_labels,
                                const AdaptiveOptions& options) {
  return ChooseEdgeParams(
      features, pg::PatternIndex::Identity(features.num).row_patterns,
      num_distinct_labels, options);
}

}  // namespace pghive::core

#include "baselines/gmm_schema.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/rng.h"

namespace pghive::baselines {

namespace {

// Log density of a diagonal Gaussian (duplicated from gmm.cc's internals to
// keep the leaf-assignment step self-contained).
double LogGaussian(const float* x, const double* mean, const double* var,
                   size_t dim) {
  double log_p = -0.5 * static_cast<double>(dim) * std::log(2.0 * M_PI);
  for (size_t d = 0; d < dim; ++d) {
    double diff = static_cast<double>(x[d]) - mean[d];
    log_p += -0.5 * std::log(var[d]) - 0.5 * diff * diff / var[d];
  }
  return log_p;
}

// One leaf of the hierarchical mixture.
struct Leaf {
  std::vector<double> mean;
  std::vector<double> var;
  double weight = 1.0;
};

// Single-Gaussian BIC of a point set (the "don't split" alternative).
double SingleGaussianBic(const std::vector<float>& data, size_t num,
                         size_t dim, double min_var) {
  std::vector<double> mean(dim, 0.0), var(dim, min_var);
  for (size_t i = 0; i < num; ++i) {
    for (size_t d = 0; d < dim; ++d) mean[d] += data[i * dim + d];
  }
  for (auto& m : mean) m /= static_cast<double>(num);
  for (size_t i = 0; i < num; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      double diff = data[i * dim + d] - mean[d];
      var[d] += diff * diff / static_cast<double>(num);
    }
  }
  double ll = 0.0;
  for (size_t i = 0; i < num; ++i) {
    ll += LogGaussian(&data[i * dim], mean.data(), var.data(), dim);
  }
  double params = 2.0 * static_cast<double>(dim);
  return -2.0 * ll + params * std::log(std::max<size_t>(num, 2));
}

// Recursively splits a point set while the 2-component fit beats the
// 1-component BIC; appends resulting leaves.
void SplitRecursive(const std::vector<float>& data, size_t num, size_t dim,
                    size_t depth, size_t* em_iterations,
                    std::vector<Leaf>* leaves) {
  auto make_leaf = [&]() {
    Leaf leaf;
    leaf.mean.assign(dim, 0.0);
    leaf.var.assign(dim, GaussianMixture::kMinVariance);
    for (size_t i = 0; i < num; ++i) {
      for (size_t d = 0; d < dim; ++d) leaf.mean[d] += data[i * dim + d];
    }
    for (auto& m : leaf.mean) m /= static_cast<double>(std::max<size_t>(num, 1));
    for (size_t i = 0; i < num; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        double diff = data[i * dim + d] - leaf.mean[d];
        leaf.var[d] += diff * diff / static_cast<double>(num);
      }
    }
    leaf.weight = static_cast<double>(num);
    leaves->push_back(std::move(leaf));
  };

  if (depth == 0 || num < 40) {
    make_leaf();
    return;
  }
  GmmFit split = GaussianMixture::Fit(data, num, dim, 2);
  *em_iterations += split.iterations;
  double bic1 =
      SingleGaussianBic(data, num, dim, GaussianMixture::kMinVariance);
  if (split.k < 2 || split.Bic(num) >= bic1) {
    make_leaf();
    return;
  }
  auto assign = GaussianMixture::Assign(split, data, num);
  std::vector<float> part[2];
  size_t counts[2] = {0, 0};
  for (size_t i = 0; i < num; ++i) {
    part[assign[i]].insert(part[assign[i]].end(), data.data() + i * dim,
                           data.data() + (i + 1) * dim);
    ++counts[assign[i]];
  }
  if (counts[0] == 0 || counts[1] == 0) {
    make_leaf();
    return;
  }
  SplitRecursive(part[0], counts[0], dim, depth - 1, em_iterations, leaves);
  SplitRecursive(part[1], counts[1], dim, depth - 1, em_iterations, leaves);
}

}  // namespace

util::StatusOr<GmmSchemaResult> GmmSchema::Discover(
    const pg::PropertyGraph& graph) const {
  const size_t n = graph.num_nodes();
  if (n == 0) {
    return util::Status::FailedPrecondition("empty graph");
  }
  for (const pg::Node& node : graph.nodes()) {
    if (node.labels.empty()) {
      return util::Status::FailedPrecondition(
          "GMMSchema requires fully labeled datasets");
    }
  }

  // Feature space: the binary property-presence vector. Labels seed the
  // mixture (one initial component per distinct label set) but EM runs on
  // the property distributions, which is what makes the baseline noise-
  // sensitive.
  pg::Vocabulary& vocab = const_cast<pg::PropertyGraph&>(graph).vocab();
  std::unordered_map<uint32_t, uint32_t> token_to_group;
  std::vector<uint32_t> node_group(n);
  for (pg::NodeId i = 0; i < n; ++i) {
    uint32_t token = vocab.TokenForLabelSet(graph.node(i).labels);
    auto [it, inserted] = token_to_group.try_emplace(
        token, static_cast<uint32_t>(token_to_group.size()));
    node_group[i] = it->second;
  }
  const size_t k = token_to_group.size();
  const size_t dim = std::max<size_t>(1, vocab.num_keys());

  std::vector<float> features(n * dim, 0.0f);
  for (pg::NodeId i = 0; i < n; ++i) {
    for (const auto& [key, value] : graph.node(i).properties.entries()) {
      if (key < dim) features[i * dim + key] = 1.0f;
    }
  }

  // Initial means: per label-group property means.
  std::vector<double> init_means(k * dim, 0.0);
  std::vector<size_t> group_sizes(k, 0);
  for (pg::NodeId i = 0; i < n; ++i) {
    ++group_sizes[node_group[i]];
    for (size_t d = 0; d < dim; ++d) {
      init_means[node_group[i] * dim + d] += features[i * dim + d];
    }
  }
  for (size_t g = 0; g < k; ++g) {
    if (group_sizes[g] == 0) continue;
    for (size_t d = 0; d < dim; ++d) {
      init_means[g * dim + d] /= static_cast<double>(group_sizes[g]);
    }
  }

  GmmSchemaResult result;
  util::Rng rng(options_.seed);

  // Fit on a sample, hierarchically refine, assign everything.
  size_t fit_n = std::min(n, kFitSampleCap);
  std::vector<float> sample;
  const std::vector<float>* fit_data = &features;
  if (fit_n < n) {
    auto idx = rng.SampleWithoutReplacement(n, fit_n);
    sample.resize(fit_n * dim);
    for (size_t i = 0; i < fit_n; ++i) {
      std::copy_n(&features[idx[i] * dim], dim, &sample[i * dim]);
    }
    fit_data = &sample;
  }
  GmmFit base =
      GaussianMixture::FitWithInit(*fit_data, fit_n, dim, k, init_means);
  result.em_iterations = base.iterations;

  // Hierarchical step: split each base component's sample points while BIC
  // keeps improving.
  auto base_assign = GaussianMixture::Assign(base, *fit_data, fit_n);
  std::vector<Leaf> leaves;
  for (size_t c = 0; c < base.k; ++c) {
    std::vector<float> members;
    size_t count = 0;
    for (size_t i = 0; i < fit_n; ++i) {
      if (base_assign[i] != c) continue;
      members.insert(members.end(), fit_data->data() + i * dim,
                     fit_data->data() + (i + 1) * dim);
      ++count;
    }
    if (count == 0) continue;
    SplitRecursive(members, count, dim, kSplitDepth, &result.em_iterations,
                   &leaves);
  }
  if (leaves.empty()) {
    return util::Status::Internal("GMMSchema produced no clusters");
  }
  double total_weight = 0;
  for (const Leaf& leaf : leaves) total_weight += leaf.weight;

  // Final hard assignment of every node to its most probable leaf.
  result.node_assignment.assign(n, 0);
  for (pg::NodeId i = 0; i < n; ++i) {
    double best = -1e300;
    uint32_t best_leaf = 0;
    for (size_t l = 0; l < leaves.size(); ++l) {
      double lp = std::log(std::max(leaves[l].weight / total_weight, 1e-12)) +
                  LogGaussian(&features[i * dim], leaves[l].mean.data(),
                              leaves[l].var.data(), dim);
      if (lp > best) {
        best = lp;
        best_leaf = static_cast<uint32_t>(l);
      }
    }
    result.node_assignment[i] = best_leaf;
  }
  result.num_clusters = leaves.size();
  return result;
}

}  // namespace pghive::baselines

#ifndef PGHIVE_UTIL_RNG_H_
#define PGHIVE_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pghive::util {

/// Deterministic 64-bit PRNG (xoshiro256**, seeded via SplitMix64).
/// Every stochastic component in the library takes an explicit seed so all
/// experiments are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, n). n must be > 0.
  uint64_t NextBounded(uint64_t n);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Bernoulli(p).
  bool NextBool(double p);

  /// Poisson(lambda) via Knuth for small lambda, normal approx otherwise.
  int NextPoisson(double lambda);

  /// Returns k distinct indices sampled uniformly from [0, n) (k <= n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Fisher-Yates shuffles the index range [0, n).
  std::vector<size_t> Permutation(size_t n);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// 64-bit mix used for stateless hashing of ids (SplitMix64 finalizer).
uint64_t Mix64(uint64_t x);

/// Combines two hashes.
uint64_t HashCombine(uint64_t a, uint64_t b);

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_RNG_H_

#include "util/rng.h"

#include <cmath>
#include <numeric>

#include "util/status.h"

namespace pghive::util {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t Mix64(uint64_t x) {
  uint64_t state = x;
  return SplitMix64(&state);
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (auto& s : s_) s = SplitMix64(&state);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t n) {
  PGHIVE_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

int Rng::NextPoisson(double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    double l = std::exp(-lambda);
    int k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= NextDouble();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation for large lambda.
  double v = lambda + std::sqrt(lambda) * NextGaussian();
  return v < 0 ? 0 : static_cast<int>(v + 0.5);
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  PGHIVE_CHECK(k <= n);
  // Floyd's algorithm would need a set; for our sizes partial Fisher-Yates
  // over an index array is simple and fast enough.
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(NextBounded(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  return SampleWithoutReplacement(n, n);
}

}  // namespace pghive::util

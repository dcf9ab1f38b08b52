// DotF32's contract is stronger than "approximately the dot product": it
// promises the exact 4-lane double-accumulation result — lane (i & 3)
// accumulates element i, lanes combine as (l0 + l1) + (l2 + l3) — so every
// build produces bit-identical LSH hashes. The reference below re-derives
// that scheme independently; equality must be exact.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace pghive::util {
namespace {

double FourLaneReference(const float* a, const float* b, size_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    lanes[i & 3] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

TEST(DotF32Test, BitIdenticalToFourLaneReferenceAtEveryLength) {
  Rng rng(41);
  // Lengths around the 4-lane unroll boundary, plus typical feature dims.
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{8}, size_t{9}, size_t{15}, size_t{16}, size_t{17},
                   size_t{31}, size_t{64}, size_t{77}, size_t{128}}) {
    std::vector<float> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextGaussian());
      b[i] = static_cast<float>(rng.NextGaussian());
    }
    const double got = DotF32(a.data(), b.data(), n);
    const double want = FourLaneReference(a.data(), b.data(), n);
    // Exact: both sides perform the same additions in the same order.
    EXPECT_EQ(got, want) << "n = " << n;
  }
}

TEST(DotF32Test, ZeroLengthIsZero) {
  EXPECT_EQ(DotF32(nullptr, nullptr, 0), 0.0);
}

}  // namespace
}  // namespace pghive::util

#ifndef PGHIVE_UTIL_SIMD_H_
#define PGHIVE_UTIL_SIMD_H_

#include <cstddef>

namespace pghive::util {

/// Dot product of two float spans accumulated in double precision over a
/// fixed 4-lane reduction tree: element i always lands in lane (i & 3) and
/// the lanes combine as (l0 + l1) + (l2 + l3).
///
/// The lane structure is the determinism contract: every build evaluates
/// the exact same IEEE operation tree (separate multiply and add — the
/// build targets the x86-64 baseline, so there is no FMA contraction). It
/// is also what auto-vectorizers turn into packed-double code on their own,
/// which is the point of handing the hot loops contiguous columns.
inline double DotF32(const float* a, const float* b, size_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lanes[0] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    lanes[1] += static_cast<double>(a[i + 1]) * static_cast<double>(b[i + 1]);
    lanes[2] += static_cast<double>(a[i + 2]) * static_cast<double>(b[i + 2]);
    lanes[3] += static_cast<double>(a[i + 3]) * static_cast<double>(b[i + 3]);
  }
  for (; i < n; ++i) {
    lanes[i & 3] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_SIMD_H_

#ifndef DPJL_TESTS_TEST_UTIL_H_
#define DPJL_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/core/sketcher.h"
#include "src/stats/welford.h"

namespace dpjl::testing {

/// Fixed base seed: every test derives from it so the suite is fully
/// deterministic. Tolerances below are calibrated for these seeds plus
/// comfortable slack; they are not knife-edge.
inline constexpr uint64_t kTestSeed = 0xD9E57A11C0FFEE00ULL;

/// Runs `trials` evaluations of `sample(trial_index)` and accumulates the
/// results. The callback must use trial_index to derive fresh randomness.
inline OnlineMoments MonteCarlo(int64_t trials,
                                const std::function<double(int64_t)>& sample) {
  OnlineMoments m;
  for (int64_t t = 0; t < trials; ++t) m.Add(sample(t));
  return m;
}

/// True iff |a - b| <= tol * max(|a|, |b|, floor).
inline bool NearRel(double a, double b, double tol, double floor = 1e-12) {
  const double scale = std::max({std::fabs(a), std::fabs(b), floor});
  return std::fabs(a - b) <= tol * scale;
}

/// A small helper producing a sketcher or aborting the test setup.
inline PrivateSketcher MakeSketcherOrDie(int64_t d, const SketcherConfig& config) {
  auto result = PrivateSketcher::Create(d, config);
  DPJL_CHECK(result.ok(), "test sketcher creation failed: " + result.status().ToString());
  return std::move(result).value();
}

/// A 108-byte sketch blob that carries two values while its output_dim and
/// value count both claim 2^61 + 2. count * sizeof(double) wraps to the 16
/// bytes present, so a decoder that multiplies before it compares accepts
/// the header and then asks for an impossible allocation.
inline std::string ForgedCountSketchBlob() {
  SketchMetadata meta;
  meta.input_dim = 8;
  meta.output_dim = 2;
  std::string bytes = PrivateSketch({1.0, 2.0}, meta).Serialize();
  const int64_t forged = (int64_t{1} << 61) + 2;
  constexpr size_t kOutputDimOffset = 20;  // magic 8, transform 4, input_dim 8
  constexpr size_t kCountOffset = 84;      // the i64 right before the values
  std::memcpy(bytes.data() + kOutputDimOffset, &forged, sizeof(forged));
  std::memcpy(bytes.data() + kCountOffset, &forged, sizeof(forged));
  return bytes;
}

}  // namespace dpjl::testing

#endif  // DPJL_TESTS_TEST_UTIL_H_

// AVX2 kernel table: the lane-generic bodies of kernels_simd.h at 4 doubles
// per vector, plus the one intrinsic holdout below. Compiled with -mavx2
// -ffp-contract=off (no FMA; see kernels.h).

#include <immintrin.h>

#include "src/linalg/kernels_simd.h"

namespace dpjl::internal {

void GemvAvx2(const double* m, int64_t rows, int64_t cols, const double* x,
              double* y) {
  // Holdout: no generic body. Four rows per pass, one lane per row: each
  // lane accumulates its row's dot product in the scalar order (ascending
  // c, one accumulator). The 4x4 transpose turns four row-major loads into
  // column vectors.
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* m0 = m + (r + 0) * cols;
    const double* m1 = m + (r + 1) * cols;
    const double* m2 = m + (r + 2) * cols;
    const double* m3 = m + (r + 3) * cols;
    __m256d acc = _mm256_setzero_pd();
    int64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d r0 = _mm256_loadu_pd(m0 + c);
      const __m256d r1 = _mm256_loadu_pd(m1 + c);
      const __m256d r2 = _mm256_loadu_pd(m2 + c);
      const __m256d r3 = _mm256_loadu_pd(m3 + c);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
      const __m256d c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
      const __m256d c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
      const __m256d c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
      const __m256d c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c0, _mm256_set1_pd(x[c + 0])));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c1, _mm256_set1_pd(x[c + 1])));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c2, _mm256_set1_pd(x[c + 2])));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c3, _mm256_set1_pd(x[c + 3])));
    }
    for (; c < cols; ++c) {
      const __m256d cv = _mm256_set_pd(m3[c], m2[c], m1[c], m0[c]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(cv, _mm256_set1_pd(x[c])));
    }
    _mm256_storeu_pd(y + r, acc);
  }
  if (r < rows) kScalarKernels.gemv(m + r * cols, rows - r, cols, x, y + r);
}

const KernelOps& Avx2Kernels() {
  static const KernelOps kOps = {
      "avx2",
      Fwht,
      FwhtBlock,
      GemvAvx2,
      GemvBlock,
      CsrApplyScalar,  // sequential reduction; see kernels.h
      CsrApplyBlock,
      SjltColumnBlock,
      Scale,
      SquaredDistanceTile,
      SquaredDistanceBlock,
  };
  return kOps;
}

}  // namespace dpjl::internal

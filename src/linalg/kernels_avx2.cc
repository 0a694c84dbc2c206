// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off (no -mfma: the
// scalar reference performs multiply-then-add with two roundings, and a
// fused kernel would not be bit-identical to it).
//
// Bit-exactness strategy, shared with kernels_avx512.cc: vectorize only
// across independent output elements — matrix rows, interleaved batch
// lanes, FWHT butterflies — so every lane executes exactly the scalar
// reference's operation sequence. Reductions (CSR row gathers over a single
// vector) stay scalar; a vector partial-sum would reassociate.

#include "src/linalg/kernels_x86.h"

#ifdef DPJL_HAVE_AVX2_KERNELS

#include <immintrin.h>

namespace dpjl::internal {

namespace {

/// IEEE-exact negation (sign-bit flip; 0.0 - u would mishandle -0.0).
inline __m256d Negate(__m256d u) {
  return _mm256_xor_pd(u, _mm256_set1_pd(-0.0));
}

}  // namespace

void FwhtLowStagesAvx2(double* v, int64_t n) {
  // The len=1 and len=2 butterfly stages live entirely inside one 4-lane
  // vector, so both run in a single pass. n is a power of two >= 4.
  // Lanes 2,3 of kSign2 flip so add(t, xor(u, kSign2)) subtracts there;
  // a - b == a + (-b) exactly in IEEE arithmetic.
  const __m256d kSign2 = _mm256_set_pd(-0.0, -0.0, 0.0, 0.0);
  for (int64_t i = 0; i < n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);  // [x0 x1 x2 x3]
    // len=1: [x0+x1, x0-x1, x2+x3, x2-x3]. addsub subtracts in even lanes
    // and adds in odd lanes, so feed it the negated second operand.
    __m256d t = _mm256_movedup_pd(x);                    // [x0 x0 x2 x2]
    __m256d u = _mm256_permute_pd(x, 0xF);               // [x1 x1 x3 x3]
    x = _mm256_addsub_pd(t, Negate(u));
    // len=2: [y0+y2, y1+y3, y0-y2, y1-y3].
    t = _mm256_permute2f128_pd(x, x, 0x00);              // [y0 y1 y0 y1]
    u = _mm256_permute2f128_pd(x, x, 0x11);              // [y2 y3 y2 y3]
    x = _mm256_add_pd(t, _mm256_xor_pd(u, kSign2));
    _mm256_storeu_pd(v + i, x);
  }
}

void FwhtAvx2(double* v, int64_t n) {
  if (n < 8) {
    FwhtScalar(v, n);
    return;
  }
  FwhtLowStagesAvx2(v, n);
  for (int64_t len = 4; len < n; len <<= 1) {
    for (int64_t block = 0; block < n; block += len << 1) {
      for (int64_t i = block; i < block + len; i += 4) {
        const __m256d a = _mm256_loadu_pd(v + i);
        const __m256d b = _mm256_loadu_pd(v + i + len);
        _mm256_storeu_pd(v + i, _mm256_add_pd(a, b));
        _mm256_storeu_pd(v + i + len, _mm256_sub_pd(a, b));
      }
    }
  }
}

void FwhtBlockAvx2(double* v, int64_t n, int64_t width) {
  if (width < 4) {
    FwhtBlockScalar(v, n, width);
    return;
  }
  for (int64_t len = 1; len < n; len <<= 1) {
    for (int64_t block = 0; block < n; block += len << 1) {
      for (int64_t i = block; i < block + len; ++i) {
        double* pa = v + i * width;
        double* pb = v + (i + len) * width;
        int64_t t = 0;
        for (; t + 4 <= width; t += 4) {
          const __m256d a = _mm256_loadu_pd(pa + t);
          const __m256d b = _mm256_loadu_pd(pb + t);
          _mm256_storeu_pd(pa + t, _mm256_add_pd(a, b));
          _mm256_storeu_pd(pb + t, _mm256_sub_pd(a, b));
        }
        for (; t < width; ++t) {
          const double a = pa[t];
          const double b = pb[t];
          pa[t] = a + b;
          pb[t] = a - b;
        }
      }
    }
  }
}

void GemvAvx2(const double* m, int64_t rows, int64_t cols, const double* x,
              double* y) {
  // Four rows per pass, one lane per row: each lane accumulates its row's
  // dot product in the scalar order (ascending c, one accumulator). The
  // 4x4 transpose turns four row-major loads into column vectors.
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
  if (r < rows) GemvScalar(m + r * cols, rows - r, cols, x, y + r);
}

void GemvBlockAvx2(const double* m, int64_t rows, int64_t cols,
                   const double* x, int64_t width, double* y) {
  if (width == 8) {
    // The batch layer's native width: four rows x eight lanes of register
    // accumulators, so the matrix streams through once per row quad and
    // every coefficient load feeds eight items.
    int64_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      const double* m0 = m + (r + 0) * cols;
      const double* m1 = m + (r + 1) * cols;
      const double* m2 = m + (r + 2) * cols;
      const double* m3 = m + (r + 3) * cols;
      __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
      __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
      __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
      __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
      for (int64_t c = 0; c < cols; ++c) {
        const double* xc = x + c * 8;
        const __m256d x0 = _mm256_loadu_pd(xc);
        const __m256d x1 = _mm256_loadu_pd(xc + 4);
        __m256d b = _mm256_set1_pd(m0[c]);
        a00 = _mm256_add_pd(a00, _mm256_mul_pd(b, x0));
        a01 = _mm256_add_pd(a01, _mm256_mul_pd(b, x1));
        b = _mm256_set1_pd(m1[c]);
        a10 = _mm256_add_pd(a10, _mm256_mul_pd(b, x0));
        a11 = _mm256_add_pd(a11, _mm256_mul_pd(b, x1));
        b = _mm256_set1_pd(m2[c]);
        a20 = _mm256_add_pd(a20, _mm256_mul_pd(b, x0));
        a21 = _mm256_add_pd(a21, _mm256_mul_pd(b, x1));
        b = _mm256_set1_pd(m3[c]);
        a30 = _mm256_add_pd(a30, _mm256_mul_pd(b, x0));
        a31 = _mm256_add_pd(a31, _mm256_mul_pd(b, x1));
      }
      _mm256_storeu_pd(y + (r + 0) * 8, a00);
      _mm256_storeu_pd(y + (r + 0) * 8 + 4, a01);
      _mm256_storeu_pd(y + (r + 1) * 8, a10);
      _mm256_storeu_pd(y + (r + 1) * 8 + 4, a11);
      _mm256_storeu_pd(y + (r + 2) * 8, a20);
      _mm256_storeu_pd(y + (r + 2) * 8 + 4, a21);
      _mm256_storeu_pd(y + (r + 3) * 8, a30);
      _mm256_storeu_pd(y + (r + 3) * 8 + 4, a31);
    }
    for (; r < rows; ++r) {
      const double* row = m + r * cols;
      __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
      for (int64_t c = 0; c < cols; ++c) {
        const double* xc = x + c * 8;
        const __m256d b = _mm256_set1_pd(row[c]);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(b, _mm256_loadu_pd(xc)));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(b, _mm256_loadu_pd(xc + 4)));
      }
      _mm256_storeu_pd(y + r * 8, a0);
      _mm256_storeu_pd(y + r * 8 + 4, a1);
    }
    return;
  }
  // Generic width (partial tail blocks): vectorize the lane loop in place.
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = m + r * cols;
    double* out = y + r * width;
    for (int64_t t = 0; t < width; ++t) out[t] = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double* xc = x + c * width;
      const __m256d b = _mm256_set1_pd(row[c]);
      int64_t t = 0;
      for (; t + 4 <= width; t += 4) {
        _mm256_storeu_pd(
            out + t,
            _mm256_add_pd(_mm256_loadu_pd(out + t),
                          _mm256_mul_pd(b, _mm256_loadu_pd(xc + t))));
      }
      for (; t < width; ++t) out[t] += row[c] * xc[t];
    }
  }
}

void CsrApplyBlockAvx2(const int64_t* row_ptr, const int32_t* col_idx,
                       const double* values, int64_t rows, const double* w,
                       int64_t width, double scale, double* y) {
  if (width == 8) {
    const __m256d vscale = _mm256_set1_pd(scale);
    for (int64_t i = 0; i < rows; ++i) {
      __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
      for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
        const double* wc = w + static_cast<int64_t>(col_idx[n]) * 8;
        const __m256d b = _mm256_set1_pd(values[n]);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(b, _mm256_loadu_pd(wc)));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(b, _mm256_loadu_pd(wc + 4)));
      }
      _mm256_storeu_pd(y + i * 8, _mm256_mul_pd(a0, vscale));
      _mm256_storeu_pd(y + i * 8 + 4, _mm256_mul_pd(a1, vscale));
    }
    return;
  }
  for (int64_t i = 0; i < rows; ++i) {
    double* out = y + i * width;
    int64_t t0 = 0;
    for (; t0 + 4 <= width; t0 += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
        const double* wc = w + static_cast<int64_t>(col_idx[n]) * width;
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(values[n]),
                                               _mm256_loadu_pd(wc + t0)));
      }
      _mm256_storeu_pd(out + t0, _mm256_mul_pd(acc, _mm256_set1_pd(scale)));
    }
    for (; t0 < width; ++t0) {
      double acc = 0.0;
      for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
        acc += values[n] * w[static_cast<int64_t>(col_idx[n]) * width + t0];
      }
      out[t0] = acc * scale;
    }
  }
}

void SjltColumnBlockAvx2(const double* x, int64_t width, double scale,
                         const int64_t* rows, const double* signs, int64_t s,
                         double* y) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vscale = _mm256_set1_pd(scale);
  int64_t t = 0;
  for (; t + 4 <= width; t += 4) {
    const __m256d xv = _mm256_loadu_pd(x + t);
    // NEQ_UQ matches the scalar `x != 0.0` exactly: false for +/-0.0, true
    // for NaN. Zero lanes are preserved bit-for-bit by the blend (adding
    // +0.0 instead would flip a -0.0 accumulator).
    const __m256d mask = _mm256_cmp_pd(xv, zero, _CMP_NEQ_UQ);
    if (_mm256_testz_pd(mask, mask)) continue;
    const __m256d wv = _mm256_mul_pd(xv, vscale);
    for (int64_t r = 0; r < s; ++r) {
      double* yp = y + rows[r] * width + t;
      const __m256d yv = _mm256_loadu_pd(yp);
      const __m256d upd =
          _mm256_add_pd(yv, _mm256_mul_pd(wv, _mm256_set1_pd(signs[r])));
      _mm256_storeu_pd(yp, _mm256_blendv_pd(yv, upd, mask));
    }
  }
  for (; t < width; ++t) {
    if (x[t] == 0.0) continue;
    const double w = x[t] * scale;
    for (int64_t r = 0; r < s; ++r) {
      y[rows[r] * width + t] += w * signs[r];
    }
  }
}

namespace {

/// NQ probes against one 8-lane block: two ymm accumulators per probe, and
/// each block row is loaded once for all NQ of them. NQ <= 4 keeps the
/// 2 * NQ accumulators, the row and the differences within the 16 ymm
/// registers. Each lane runs the scalar estimator's exact sequence —
/// subtract, square (one rounding), accumulate (one rounding) — in
/// ascending j; only the probe and candidate axes are vectorized.
template <int NQ>
void SquaredDistanceTile8Avx2(const double* const* q, const double* c,
                              int64_t k, double* out) {
  __m256d lo[NQ];
  __m256d hi[NQ];
#pragma GCC unroll 4
  for (int p = 0; p < NQ; ++p) lo[p] = hi[p] = _mm256_setzero_pd();
  for (int64_t j = 0; j < k; ++j) {
    const __m256d c0 = _mm256_loadu_pd(c + j * 8);
    const __m256d c1 = _mm256_loadu_pd(c + j * 8 + 4);
#pragma GCC unroll 4
    for (int p = 0; p < NQ; ++p) {
      const __m256d qj = _mm256_set1_pd(q[p][j]);
      const __m256d d0 = _mm256_sub_pd(qj, c0);
      const __m256d d1 = _mm256_sub_pd(qj, c1);
      lo[p] = _mm256_add_pd(lo[p], _mm256_mul_pd(d0, d0));
      hi[p] = _mm256_add_pd(hi[p], _mm256_mul_pd(d1, d1));
    }
  }
#pragma GCC unroll 4
  for (int p = 0; p < NQ; ++p) {
    _mm256_storeu_pd(out + p * 8, lo[p]);
    _mm256_storeu_pd(out + p * 8 + 4, hi[p]);
  }
}

void SquaredDistanceBlockAvx2(const double* q, const double* c, int64_t k,
                              int64_t width, double* out) {
  SquaredDistanceTileAvx2(&q, 1, c, k, width, out);
}

}  // namespace

void SquaredDistanceTileAvx2(const double* const* q, int64_t nq,
                             const double* c, int64_t k, int64_t width,
                             double* out) {
  if (width != 8) {
    SquaredDistanceTileScalar(q, nq, c, k, width, out);
    return;
  }
  // The arena's native width: groups of up to four probes per block pass.
  for (int64_t p = 0; p < nq; p += 4) {
    switch (nq - p) {
      case 1:
        SquaredDistanceTile8Avx2<1>(q + p, c, k, out + p * 8);
        break;
      case 2:
        SquaredDistanceTile8Avx2<2>(q + p, c, k, out + p * 8);
        break;
      case 3:
        SquaredDistanceTile8Avx2<3>(q + p, c, k, out + p * 8);
        break;
      default:
        SquaredDistanceTile8Avx2<4>(q + p, c, k, out + p * 8);
        break;
    }
  }
}

void ScaleAvx2(double* v, int64_t n, double a) {
  const __m256d va = _mm256_set1_pd(a);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_mul_pd(_mm256_loadu_pd(v + i), va));
  }
  for (; i < n; ++i) v[i] *= a;
}

const KernelOps& Avx2Kernels() {
  static const KernelOps kOps = {
      "avx2",
      FwhtAvx2,
      FwhtBlockAvx2,
      GemvAvx2,
      GemvBlockAvx2,
      CsrApplyScalar,  // sequential reduction; see kernels.h
      CsrApplyBlockAvx2,
      SjltColumnBlockAvx2,
      ScaleAvx2,
      SquaredDistanceTileAvx2,
      SquaredDistanceBlockAvx2,
  };
  return kOps;
}

}  // namespace dpjl::internal

#endif  // DPJL_HAVE_AVX2_KERNELS

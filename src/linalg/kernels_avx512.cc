// AVX-512 kernel table. Compiled with -mavx512f -ffp-contract=off; same
// bit-exactness discipline as kernels_avx2.cc (no FMA, no reassociation,
// masked stores leave untouched lanes bit-identical).
//
// Only the kernels where 512-bit vectors actually pay are widened here:
// the FWHT stages with len >= 8 and the width==8 block kernels, where one
// zmm register holds a full batch micro-block row. Everything else
// delegates to the AVX2 implementations (which this build also compiles,
// since avx512f-capable hardware always has avx2).

#include "src/linalg/kernels_x86.h"

#ifdef DPJL_HAVE_AVX512_KERNELS

#include <immintrin.h>

namespace dpjl::internal {

namespace {

// In-register butterflies for the first three stages. Each returns the
// same add/sub per element the scalar loop performs; the mask picks the
// "a - b" lanes, so the arithmetic (and thus every bit) is unchanged —
// only the data movement differs.
inline __m512d FwhtStage1(__m512d x) {
  const __m512d t = _mm512_movedup_pd(x);       // even elements duplicated
  const __m512d u = _mm512_permute_pd(x, 0xFF);  // odd elements duplicated
  return _mm512_mask_sub_pd(_mm512_add_pd(t, u), 0xAA, t, u);
}

inline __m512d FwhtStage2(__m512d x) {
  // Swap the 128-bit halves within each 256-bit lane: [2,3,0,1, 6,7,4,5].
  const __m512d s = _mm512_permutex_pd(x, _MM_SHUFFLE(1, 0, 3, 2));
  return _mm512_mask_sub_pd(_mm512_add_pd(x, s), 0xCC, s, x);
}

inline __m512d FwhtStage4(__m512d x) {
  // Swap the 256-bit halves: [4,5,6,7, 0,1,2,3].
  const __m512d s = _mm512_shuffle_f64x2(x, x, _MM_SHUFFLE(1, 0, 3, 2));
  return _mm512_mask_sub_pd(_mm512_add_pd(x, s), 0xF0, s, x);
}

void FwhtAvx512(double* v, int64_t n) {
  if (n < 16) {
    FwhtAvx2(v, n);
    return;
  }
  // One memory pass per 16-element chunk covers stages len = 1, 2, 4, 8
  // entirely in registers.
  for (int64_t i = 0; i < n; i += 16) {
    __m512d x0 = _mm512_loadu_pd(v + i);
    __m512d x1 = _mm512_loadu_pd(v + i + 8);
    x0 = FwhtStage4(FwhtStage2(FwhtStage1(x0)));
    x1 = FwhtStage4(FwhtStage2(FwhtStage1(x1)));
    _mm512_storeu_pd(v + i, _mm512_add_pd(x0, x1));
    _mm512_storeu_pd(v + i + 8, _mm512_sub_pd(x0, x1));
  }
  // Remaining stages fused radix-4 (two butterfly stages per memory pass);
  // a lone radix-2 pass finishes when the stage count is odd. The fused
  // form performs the identical adds/subs of stages len and 2*len — stage
  // len's intermediates (a0..a3) just stay in registers.
  int64_t len = 16;
  while (len < n) {
    if ((len << 1) < n) {
      for (int64_t block = 0; block < n; block += len << 2) {
        for (int64_t i = block; i < block + len; i += 8) {
          const __m512d u0 = _mm512_loadu_pd(v + i);
          const __m512d u1 = _mm512_loadu_pd(v + i + len);
          const __m512d u2 = _mm512_loadu_pd(v + i + 2 * len);
          const __m512d u3 = _mm512_loadu_pd(v + i + 3 * len);
          const __m512d a0 = _mm512_add_pd(u0, u1);
          const __m512d a1 = _mm512_sub_pd(u0, u1);
          const __m512d a2 = _mm512_add_pd(u2, u3);
          const __m512d a3 = _mm512_sub_pd(u2, u3);
          _mm512_storeu_pd(v + i, _mm512_add_pd(a0, a2));
          _mm512_storeu_pd(v + i + len, _mm512_add_pd(a1, a3));
          _mm512_storeu_pd(v + i + 2 * len, _mm512_sub_pd(a0, a2));
          _mm512_storeu_pd(v + i + 3 * len, _mm512_sub_pd(a1, a3));
        }
      }
      len <<= 2;
    } else {
      for (int64_t block = 0; block < n; block += len << 1) {
        for (int64_t i = block; i < block + len; i += 8) {
          const __m512d a = _mm512_loadu_pd(v + i);
          const __m512d b = _mm512_loadu_pd(v + i + len);
          _mm512_storeu_pd(v + i, _mm512_add_pd(a, b));
          _mm512_storeu_pd(v + i + len, _mm512_sub_pd(a, b));
        }
      }
      len <<= 1;
    }
  }
}

void FwhtBlockAvx512(double* v, int64_t n, int64_t width) {
  if (width != 8) {
    FwhtBlockAvx2(v, n, width);
    return;
  }
  // One zmm per lane row: the whole micro-block advances per butterfly.
  // Stages run fused radix-4 where possible (same adds/subs as two
  // sequential stages, intermediates kept in registers), with a radix-2
  // pass absorbing an odd stage count.
  int64_t len = 1;
  while (len < n) {
    if ((len << 1) < n) {
      for (int64_t block = 0; block < n; block += len << 2) {
        for (int64_t i = block; i < block + len; ++i) {
          double* p0 = v + i * 8;
          double* p1 = v + (i + len) * 8;
          double* p2 = v + (i + 2 * len) * 8;
          double* p3 = v + (i + 3 * len) * 8;
          const __m512d u0 = _mm512_loadu_pd(p0);
          const __m512d u1 = _mm512_loadu_pd(p1);
          const __m512d u2 = _mm512_loadu_pd(p2);
          const __m512d u3 = _mm512_loadu_pd(p3);
          const __m512d a0 = _mm512_add_pd(u0, u1);
          const __m512d a1 = _mm512_sub_pd(u0, u1);
          const __m512d a2 = _mm512_add_pd(u2, u3);
          const __m512d a3 = _mm512_sub_pd(u2, u3);
          _mm512_storeu_pd(p0, _mm512_add_pd(a0, a2));
          _mm512_storeu_pd(p1, _mm512_add_pd(a1, a3));
          _mm512_storeu_pd(p2, _mm512_sub_pd(a0, a2));
          _mm512_storeu_pd(p3, _mm512_sub_pd(a1, a3));
        }
      }
      len <<= 2;
    } else {
      for (int64_t block = 0; block < n; block += len << 1) {
        for (int64_t i = block; i < block + len; ++i) {
          double* pa = v + i * 8;
          double* pb = v + (i + len) * 8;
          const __m512d a = _mm512_loadu_pd(pa);
          const __m512d b = _mm512_loadu_pd(pb);
          _mm512_storeu_pd(pa, _mm512_add_pd(a, b));
          _mm512_storeu_pd(pb, _mm512_sub_pd(a, b));
        }
      }
      len <<= 1;
    }
  }
}

void GemvBlockAvx512(const double* m, int64_t rows, int64_t cols,
                     const double* x, int64_t width, double* y) {
  if (width != 8) {
    GemvBlockAvx2(m, rows, cols, x, width, y);
    return;
  }
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* m0 = m + (r + 0) * cols;
    const double* m1 = m + (r + 1) * cols;
    const double* m2 = m + (r + 2) * cols;
    const double* m3 = m + (r + 3) * cols;
    __m512d a0 = _mm512_setzero_pd();
    __m512d a1 = _mm512_setzero_pd();
    __m512d a2 = _mm512_setzero_pd();
    __m512d a3 = _mm512_setzero_pd();
    for (int64_t c = 0; c < cols; ++c) {
      const __m512d xc = _mm512_loadu_pd(x + c * 8);
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(_mm512_set1_pd(m0[c]), xc));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(_mm512_set1_pd(m1[c]), xc));
      a2 = _mm512_add_pd(a2, _mm512_mul_pd(_mm512_set1_pd(m2[c]), xc));
      a3 = _mm512_add_pd(a3, _mm512_mul_pd(_mm512_set1_pd(m3[c]), xc));
    }
    _mm512_storeu_pd(y + (r + 0) * 8, a0);
    _mm512_storeu_pd(y + (r + 1) * 8, a1);
    _mm512_storeu_pd(y + (r + 2) * 8, a2);
    _mm512_storeu_pd(y + (r + 3) * 8, a3);
  }
  for (; r < rows; ++r) {
    const double* row = m + r * cols;
    __m512d acc = _mm512_setzero_pd();
    for (int64_t c = 0; c < cols; ++c) {
      acc = _mm512_add_pd(
          acc, _mm512_mul_pd(_mm512_set1_pd(row[c]), _mm512_loadu_pd(x + c * 8)));
    }
    _mm512_storeu_pd(y + r * 8, acc);
  }
}

void CsrApplyBlockAvx512(const int64_t* row_ptr, const int32_t* col_idx,
                         const double* values, int64_t rows, const double* w,
                         int64_t width, double scale, double* y) {
  if (width != 8) {
    CsrApplyBlockAvx2(row_ptr, col_idx, values, rows, w, width, scale, y);
    return;
  }
  const __m512d vscale = _mm512_set1_pd(scale);
  for (int64_t i = 0; i < rows; ++i) {
    __m512d acc = _mm512_setzero_pd();
    for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
      const __m512d wc =
          _mm512_loadu_pd(w + static_cast<int64_t>(col_idx[n]) * 8);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_set1_pd(values[n]), wc));
    }
    _mm512_storeu_pd(y + i * 8, _mm512_mul_pd(acc, vscale));
  }
}

void SjltColumnBlockAvx512(const double* x, int64_t width, double scale,
                           const int64_t* rows, const double* signs, int64_t s,
                           double* y) {
  if (width != 8) {
    SjltColumnBlockAvx2(x, width, scale, rows, signs, s, y);
    return;
  }
  const __m512d xv = _mm512_loadu_pd(x);
  // NEQ_UQ matches scalar `x != 0.0` (false for +/-0.0, true for NaN); the
  // masked store leaves zero lanes bit-untouched, like the scalar skip.
  const __mmask8 mask =
      _mm512_cmp_pd_mask(xv, _mm512_setzero_pd(), _CMP_NEQ_UQ);
  if (mask == 0) return;
  const __m512d wv = _mm512_mul_pd(xv, _mm512_set1_pd(scale));
  for (int64_t r = 0; r < s; ++r) {
    double* yp = y + rows[r] * 8;
    const __m512d yv = _mm512_loadu_pd(yp);
    const __m512d upd =
        _mm512_add_pd(yv, _mm512_mul_pd(wv, _mm512_set1_pd(signs[r])));
    _mm512_mask_storeu_pd(yp, mask, upd);
  }
}

/// NQ probes against one 8-lane block: one zmm accumulator per probe holds
/// all eight candidate lanes, and each block row is loaded once for all NQ
/// probes. The j reduction stays a single sequential accumulator per
/// (probe, lane), as in the scalar spec; NQ = 1 is the one-probe loop.
template <int NQ>
void SquaredDistanceTile8Avx512(const double* const* q, const double* c,
                                int64_t k, double* out) {
  __m512d acc[NQ];
#pragma GCC unroll 8
  for (int p = 0; p < NQ; ++p) acc[p] = _mm512_setzero_pd();
  for (int64_t j = 0; j < k; ++j) {
    const __m512d cj = _mm512_loadu_pd(c + j * 8);
#pragma GCC unroll 8
    for (int p = 0; p < NQ; ++p) {
      const __m512d d = _mm512_sub_pd(_mm512_set1_pd(q[p][j]), cj);
      acc[p] = _mm512_add_pd(acc[p], _mm512_mul_pd(d, d));
    }
  }
#pragma GCC unroll 8
  for (int p = 0; p < NQ; ++p) _mm512_storeu_pd(out + p * 8, acc[p]);
}

void SquaredDistanceTileAvx512(const double* const* q, int64_t nq,
                               const double* c, int64_t k, int64_t width,
                               double* out) {
  if (width != 8) {
    SquaredDistanceTileAvx2(q, nq, c, k, width, out);
    return;
  }
  switch (nq) {
    case 0:
      return;
    case 1:
      return SquaredDistanceTile8Avx512<1>(q, c, k, out);
    case 2:
      return SquaredDistanceTile8Avx512<2>(q, c, k, out);
    case 3:
      return SquaredDistanceTile8Avx512<3>(q, c, k, out);
    case 4:
      return SquaredDistanceTile8Avx512<4>(q, c, k, out);
    case 5:
      return SquaredDistanceTile8Avx512<5>(q, c, k, out);
    case 6:
      return SquaredDistanceTile8Avx512<6>(q, c, k, out);
    case 7:
      return SquaredDistanceTile8Avx512<7>(q, c, k, out);
    default:
      return SquaredDistanceTile8Avx512<8>(q, c, k, out);
  }
}

void SquaredDistanceBlockAvx512(const double* q, const double* c, int64_t k,
                                int64_t width, double* out) {
  SquaredDistanceTileAvx512(&q, 1, c, k, width, out);
}

void ScaleAvx512(double* v, int64_t n, double a) {
  const __m512d va = _mm512_set1_pd(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(v + i, _mm512_mul_pd(_mm512_loadu_pd(v + i), va));
  }
  if (i < n) ScaleAvx2(v + i, n - i, a);
}

}  // namespace

const KernelOps& Avx512Kernels() {
  static const KernelOps kOps = {
      "avx512",
      FwhtAvx512,
      FwhtBlockAvx512,
      GemvAvx2,        // 4x4-transpose AVX2 GEMV; single-vector path is
                       // bandwidth-bound, wider vectors don't pay here.
      GemvBlockAvx512,
      CsrApplyScalar,  // sequential reduction; see kernels.h
      CsrApplyBlockAvx512,
      SjltColumnBlockAvx512,
      ScaleAvx512,
      SquaredDistanceTileAvx512,
      SquaredDistanceBlockAvx512,
  };
  return kOps;
}

}  // namespace dpjl::internal

#endif  // DPJL_HAVE_AVX512_KERNELS

#ifndef DPJL_LINALG_KERNELS_SIMD_H_
#define DPJL_LINALG_KERNELS_SIMD_H_

// The vector kernels, written once over a GCC vector-extension type whose
// width is native to the including translation unit: 4 doubles in
// kernels_avx2.cc (-mavx2), 8 in kernels_avx512.cc (-mavx512f). Each lane
// runs the scalar spec's operation sequence, operand order included (see
// kernels.h): only independent outputs share a vector, and -ffp-contract=off
// keeps every multiply-add two roundings. The block kernels vectorize the
// native 8-lane block; any other width (a batch's final partial
// micro-block) runs the scalar table.
//
// Everything sits in an unnamed namespace: with external linkage the linker
// could fold the two ISAs' copies of an inline function or template into
// one COMDAT and hand one ISA's code to both tables (an illegal instruction
// on an AVX2-only CPU). The dpjl_linalg_no_weak_kernels ctest guards this.

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/linalg/kernels_x86.h"

namespace dpjl::internal {
namespace {

#if defined(__AVX512F__)
constexpr int kLanes = 8;
#elif defined(__AVX2__)
constexpr int kLanes = 4;
#else
#error "kernels_simd.h needs -mavx2 or -mavx512f"
#endif

/// Lanes of a block row: the batch micro-block and arena block width.
constexpr int64_t kBlockWidth = 8;
/// Vectors per block row.
constexpr int kRowVecs = kBlockWidth / kLanes;

typedef double V __attribute__((vector_size(kLanes * sizeof(double))));
/// V as memory: loads and stores go through this unaligned, alias-safe
/// view, never through memcpy or a struct of vectors (either spills).
typedef double VMem __attribute__((vector_size(kLanes * sizeof(double)),
                                   may_alias, aligned(sizeof(double))));
/// Lane mask of a V comparison: all ones where true.
using VMask = decltype(V{} != V{});

inline V Load(const double* p) { return *reinterpret_cast<const VMem*>(p); }
inline void Store(double* p, V v) { *reinterpret_cast<VMem*>(p) = v; }

/// 0, 1, ..., kLanes - 1: the lane indices the shuffles below expand.
constexpr std::make_index_sequence<kLanes> kLaneIndices{};

/// Broadcast by lane assignment. `V{} + a` would not do: the add turns a
/// -0.0 into +0.0.
template <size_t... I>
inline V SplatLanes(double a, std::index_sequence<I...>) {
  return V{(static_cast<void>(I), a)...};
}
inline V Splat(double a) { return SplatLanes(a, kLaneIndices); }

// ---------------------------------------------------------------------------
// FWHT.

/// One in-register butterfly stage with span S < kLanes: lane i becomes
/// x[i] + x[i + S] when bit S of i is clear, x[i - S] - x[i] when set. One
/// shuffle pairs every lane with its partner and a constant mask picks the
/// sum or the difference, so the arithmetic (operand order included) is
/// the scalar stage's; only the data movement differs.
template <int S, size_t... I>
inline V Butterfly(V x, std::index_sequence<I...>) {
  const V partner = __builtin_shufflevector(x, x, static_cast<int>(I ^ S)...);
  const VMask high = {((I & S) ? -1 : 0)...};
  return high ? partner - x : x + partner;
}

/// Loads the 8-element row at p and runs FWHT stages 1, 2 and 4 on it in
/// registers. Under AVX2 the row is two vectors and stage 4 pairs them.
template <int R>
inline void LoadRowLowStages(const double* p, V (&x)[R]) {
  for (int r = 0; r < R; ++r) {
    x[r] = Butterfly<2>(Butterfly<1>(Load(p + r * kLanes), kLaneIndices),
                        kLaneIndices);
  }
  if constexpr (R == 1) {
    x[0] = Butterfly<4>(x[0], kLaneIndices);
  } else {
    const V a = x[0];
    x[0] = a + x[1];
    x[1] = a - x[1];
  }
}

/// FWHT stages len, 2 len, ... < rows over `rows` (a power of two) block
/// rows of kBlockWidth lanes, every lane its own transform. Stage pairs run
/// fused radix-4 (the adds of stage len then 2 len, intermediates kept in
/// registers); an odd stage count ends with one radix-2 pass, span rows/2.
void FwhtRows(double* v, int64_t rows, int64_t len) {
  for (; (len << 1) < rows; len <<= 2) {
    const int64_t h = len * kBlockWidth;  // stage span in doubles
    for (int64_t block = 0; block < rows * kBlockWidth; block += 4 * h) {
      for (double* p = v + block; p < v + block + h; p += kLanes) {
        const V u0 = Load(p);
        const V u1 = Load(p + h);
        const V u2 = Load(p + 2 * h);
        const V u3 = Load(p + 3 * h);
        const V a0 = u0 + u1;
        const V a1 = u0 - u1;
        const V a2 = u2 + u3;
        const V a3 = u2 - u3;
        Store(p, a0 + a2);
        Store(p + h, a1 + a3);
        Store(p + 2 * h, a0 - a2);
        Store(p + 3 * h, a1 - a3);
      }
    }
  }
  if (len < rows) {
    const int64_t h = len * kBlockWidth;
    for (double* p = v; p < v + h; p += kLanes) {
      const V a = Load(p);
      const V b = Load(p + h);
      Store(p, a + b);
      Store(p + h, a - b);
    }
  }
}

/// Single-vector FWHT as n/8 rows of 8: stages 1, 2 and 4 in registers per
/// row, stage 8 fused across each row pair, then the block kernel's row
/// loop from row span 2 — the scalar stages' adds, in their order per
/// element. Below two rows the scalar loop is all there is.
void Fwht(double* v, int64_t n) {
  if (n < 2 * kBlockWidth) {
    kScalarKernels.fwht(v, n);
    return;
  }
  for (double* p = v; p < v + n; p += 2 * kBlockWidth) {
    V x0[kRowVecs];
    V x1[kRowVecs];
    LoadRowLowStages(p, x0);
    LoadRowLowStages(p + kBlockWidth, x1);
    for (int r = 0; r < kRowVecs; ++r) {
      Store(p + r * kLanes, x0[r] + x1[r]);
      Store(p + kBlockWidth + r * kLanes, x0[r] - x1[r]);
    }
  }
  FwhtRows(v, n / kBlockWidth, 2);
}

void FwhtBlock(double* v, int64_t n, int64_t width) {
  if (width != kBlockWidth) {
    kScalarKernels.fwht_block(v, n, width);
    return;
  }
  FwhtRows(v, n, 1);
}

// ---------------------------------------------------------------------------
// Dense and sparse block products.

/// NR matrix rows against one block: NR x kRowVecs register accumulators,
/// so every coefficient broadcast feeds a whole block row.
template <int NR>
inline void GemvBlockRows(const double* m, int64_t cols, const double* x,
                          double* y) {
  V acc[NR][kRowVecs] = {};
  for (int64_t c = 0; c < cols; ++c) {
    V xc[kRowVecs];
    for (int r = 0; r < kRowVecs; ++r) {
      xc[r] = Load(x + c * kBlockWidth + r * kLanes);
    }
#pragma GCC unroll 4
    for (int i = 0; i < NR; ++i) {
      const V b = Splat(m[i * cols + c]);
      for (int r = 0; r < kRowVecs; ++r) acc[i][r] += b * xc[r];
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < NR; ++i) {
    for (int r = 0; r < kRowVecs; ++r) {
      Store(y + i * kBlockWidth + r * kLanes, acc[i][r]);
    }
  }
}

void GemvBlock(const double* m, int64_t rows, int64_t cols, const double* x,
               int64_t width, double* y) {
  if (width != kBlockWidth) {
    kScalarKernels.gemv_block(m, rows, cols, x, width, y);
    return;
  }
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    GemvBlockRows<4>(m + r * cols, cols, x, y + r * kBlockWidth);
  }
  for (; r < rows; ++r) {
    GemvBlockRows<1>(m + r * cols, cols, x, y + r * kBlockWidth);
  }
}

void CsrApplyBlock(const int64_t* row_ptr, const int32_t* col_idx,
                   const double* values, int64_t rows, const double* w,
                   int64_t width, double scale, double* y) {
  if (width != kBlockWidth) {
    kScalarKernels.csr_apply_block(row_ptr, col_idx, values, rows, w, width,
                                   scale, y);
    return;
  }
  const V vscale = Splat(scale);
  for (int64_t i = 0; i < rows; ++i) {
    V acc[kRowVecs] = {};
    for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
      const double* wc = w + static_cast<int64_t>(col_idx[n]) * kBlockWidth;
      const V b = Splat(values[n]);
      for (int r = 0; r < kRowVecs; ++r) acc[r] += b * Load(wc + r * kLanes);
    }
    for (int r = 0; r < kRowVecs; ++r) {
      Store(y + i * kBlockWidth + r * kLanes, acc[r] * vscale);
    }
  }
}

void SjltColumnBlock(const double* x, int64_t width, double scale,
                     const int64_t* rows, const double* signs, int64_t s,
                     double* y) {
  if (width != kBlockWidth) {
    kScalarKernels.sjlt_column_block(x, width, scale, rows, signs, s, y);
    return;
  }
  // `x != 0.0` is the scalar skip test: false for +/-0.0, true for NaN. A
  // dead lane gets its old value written back, bit for bit (adding +0.0
  // instead would flip a -0.0 accumulator).
  VMask live[kRowVecs];
  V wv[kRowVecs];
  const V vscale = Splat(scale);
  for (int r = 0; r < kRowVecs; ++r) {
    const V xv = Load(x + r * kLanes);
    live[r] = xv != V{};
    wv[r] = xv * vscale;
  }
  for (int64_t n = 0; n < s; ++n) {
    double* yp = y + rows[n] * kBlockWidth;
    const V sign = Splat(signs[n]);
    for (int r = 0; r < kRowVecs; ++r) {
      const V yv = Load(yp + r * kLanes);
      const V upd = yv + wv[r] * sign;
      Store(yp + r * kLanes, live[r] ? upd : yv);
    }
  }
}

void Scale(double* v, int64_t n, double a) {
  const V va = Splat(a);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) Store(v + i, Load(v + i) * va);
  for (; i < n; ++i) v[i] *= a;
}

// ---------------------------------------------------------------------------
// Multi-probe squared-distance tile.

/// NQ probes against one block: NQ x kRowVecs accumulators, and each block
/// row is loaded once for all NQ probes. Each (probe, lane) cell runs the
/// scalar estimator's sequence — subtract, square, accumulate — in
/// ascending j.
template <int NQ>
void TileProbes(const double* const* q, const double* c, int64_t k,
                double* out) {
  V acc[NQ][kRowVecs] = {};
  for (int64_t j = 0; j < k; ++j) {
    V cj[kRowVecs];
    for (int r = 0; r < kRowVecs; ++r) {
      cj[r] = Load(c + j * kBlockWidth + r * kLanes);
    }
#pragma GCC unroll 8
    for (int p = 0; p < NQ; ++p) {
      const V qj = Splat(q[p][j]);
      for (int r = 0; r < kRowVecs; ++r) {
        const V d = qj - cj[r];
        acc[p][r] += d * d;
      }
    }
  }
#pragma GCC unroll 8
  for (int p = 0; p < NQ; ++p) {
    for (int r = 0; r < kRowVecs; ++r) {
      Store(out + p * kBlockWidth + r * kLanes, acc[p][r]);
    }
  }
}

/// TileProbes<nq> for 1 <= nq <= sizeof...(I).
template <size_t... I>
inline void TileProbesN(const double* const* q, int64_t nq, const double* c,
                        int64_t k, double* out, std::index_sequence<I...>) {
  ((nq == static_cast<int64_t>(I) + 1
        ? TileProbes<static_cast<int>(I) + 1>(q, c, k, out)
        : void()),
   ...);
}

void SquaredDistanceTile(const double* const* q, int64_t nq, const double* c,
                         int64_t k, int64_t width, double* out) {
  if (width != kBlockWidth) {
    kScalarKernels.squared_distance_tile(q, nq, c, k, width, out);
    return;
  }
  // Passes of up to kLanes probes: kLanes x kRowVecs = 8 accumulator
  // vectors, which leaves registers for the block row and the differences.
  for (int64_t p = 0; p < nq; p += kLanes) {
    const int64_t group = nq - p < kLanes ? nq - p : kLanes;
    TileProbesN(q + p, group, c, k, out + p * kBlockWidth, kLaneIndices);
  }
}

void SquaredDistanceBlock(const double* q, const double* c, int64_t k,
                          int64_t width, double* out) {
  SquaredDistanceTile(&q, 1, c, k, width, out);
}

}  // namespace
}  // namespace dpjl::internal

#endif  // DPJL_LINALG_KERNELS_SIMD_H_

#ifndef DPJL_LINALG_KERNELS_H_
#define DPJL_LINALG_KERNELS_H_

#include <cstdint>

namespace dpjl {

/// Most probes one squared_distance_tile call scores against a column block.
inline constexpr int64_t kScanTileProbes = 8;

/// Runtime-dispatched inner loops of the sketching hot path.
///
/// Every function table implements the SAME math in the SAME per-element
/// operation order: vector implementations parallelize across independent
/// output elements (matrix rows, interleaved batch lanes, FWHT butterflies)
/// and never reassociate a reduction, fuse a multiply-add, or flush
/// denormals. Output is therefore BIT-IDENTICAL across tables — the
/// determinism contract BatchSketcher exposes publicly — and the scalar
/// table is the executable specification the vector tables are tested
/// against (tests/kernel_test.cc). avx2 and avx512 compile one lane-generic
/// body per kernel (kernels_simd.h) at their native vector width; their
/// block kernels run the scalar loop for any width other than 8.
///
/// Layout convention for the *_block kernels: a "column block" packs
/// `width` input vectors lane-interleaved, element j of lane t at
/// `v[j * width + t]`. One instruction then advances every lane of one
/// coordinate, which is how a whole batch rides a single transform pass.
struct KernelOps {
  /// Implementation name: "scalar", "avx2" or "avx512".
  const char* name;

  /// In-place unnormalized FWHT of v[0, n); n must be a power of two.
  void (*fwht)(double* v, int64_t n);

  /// In-place unnormalized FWHT applied independently to each of `width`
  /// interleaved lanes of an n x width column block.
  void (*fwht_block)(double* v, int64_t n, int64_t width);

  /// Dense row-major GEMV: y[r] = sum_c m[r*cols + c] * x[c]. y is
  /// overwritten (need not be initialized).
  void (*gemv)(const double* m, int64_t rows, int64_t cols, const double* x,
               double* y);

  /// Column-block GEMV: x is a cols x width block, y a rows x width block;
  /// y[r*width + t] = sum_c m[r*cols + c] * x[c*width + t]. y overwritten.
  void (*gemv_block)(const double* m, int64_t rows, int64_t cols,
                     const double* x, int64_t width, double* y);

  /// CSR row gather: y[i] = scale * sum_{n in row i} values[n] *
  /// w[col_idx[n]]. Kept scalar in every table — per-row accumulation is a
  /// sequential reduction, and vectorizing it would reassociate.
  void (*csr_apply)(const int64_t* row_ptr, const int32_t* col_idx,
                    const double* values, int64_t rows, const double* w,
                    double scale, double* y);

  /// Column-block CSR row gather: w is a d x width block, y a rows x width
  /// block; y[i*width + t] = scale * sum_n values[n] * w[col_idx[n]*width + t].
  void (*csr_apply_block)(const int64_t* row_ptr, const int32_t* col_idx,
                          const double* values, int64_t rows, const double* w,
                          int64_t width, double scale, double* y);

  /// SJLT column update over a lane block: for each of the s (row, sign)
  /// pairs, for each lane t with x[t] != 0.0:
  ///   y[rows[r]*width + t] += (x[t] * scale) * signs[r].
  /// Lanes with x[t] == 0.0 are left bit-untouched (the scalar per-item
  /// path skips zero coordinates entirely; a blended +0.0 add could flip a
  /// -0.0 accumulator).
  void (*sjlt_column_block)(const double* x, int64_t width, double scale,
                            const int64_t* rows, const double* signs,
                            int64_t s, double* y);

  /// Elementwise v[i] *= a over [0, n) (FWHT/JL normalization sweeps).
  void (*scale)(double* v, int64_t n, double a);

  /// Multi-probe squared distance against one column block: for each probe
  /// p < nq and lane t < width,
  ///   out[p * width + t] = sum_j (q[p][j] - c[j*width + t])^2,
  /// accumulated in ascending j with one accumulator per (p, t) — the exact
  /// operation sequence of the scalar per-pair estimator loop (subtract,
  /// multiply, add; no FMA). Vector tables parallelize across lanes and
  /// probes only; the j reduction is never reassociated, so every (p, t)
  /// cell is bit-identical to a scalar per-entry scan. One load of a block
  /// row feeds all nq probes, which is what makes a batch cheaper than nq
  /// single scans. Requires 0 <= nq <= kScanTileProbes; probe pointers may
  /// alias one another (duplicate probes) but not `out`.
  void (*squared_distance_tile)(const double* const* q, int64_t nq,
                                const double* c, int64_t k, int64_t width,
                                double* out);

  /// The one-probe case of squared_distance_tile: out[t] for q = q[0].
  /// Every table implements it as that call, so each keeps one distance
  /// loop.
  void (*squared_distance_block)(const double* q, const double* c, int64_t k,
                                 int64_t width, double* out);
};

/// The table every hot path dispatches through, selected once on first use:
///   1. DPJL_FORCE_SCALAR set to anything but "" or "0" -> scalar;
///   2. DPJL_KERNELS=scalar|avx2|avx512 -> that table when this build and
///      CPU support it (silently falls through to auto-detection otherwise);
///   3. otherwise the best set CPUID reports: avx512 > avx2 > scalar.
/// The selection is immutable afterwards (concurrent readers are safe).
const KernelOps& Kernels();

/// The portable reference table; always available.
const KernelOps& ScalarKernels();

/// Table lookup by name ("scalar", "avx2", "avx512"). Returns nullptr when
/// the build lacks the implementation or the CPU cannot run it. Intended
/// for tests and diagnostics (dpjl_tool kernels).
const KernelOps* KernelsByName(const char* name);

/// Overrides the dispatched table process-wide (nullptr restores the
/// startup selection). Test-only: callers must not race it against running
/// transforms.
void SetKernelsForTest(const KernelOps* kernels);

}  // namespace dpjl

#endif  // DPJL_LINALG_KERNELS_H_

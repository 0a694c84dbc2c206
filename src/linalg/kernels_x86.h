#ifndef DPJL_LINALG_KERNELS_X86_H_
#define DPJL_LINALG_KERNELS_X86_H_

#include <cstdint>

#include "src/linalg/kernels.h"

/// Internal glue between the dispatch (kernels.cc) and the per-ISA
/// translation units, which CMake compiles with their own -m flags and
/// -ffp-contract=off. Nothing here is part of the public API.

namespace dpjl::internal {

/// Scalar kernels (kernels.cc), individually reusable as tail loops and as
/// table entries for operations a wider ISA does not accelerate.
void FwhtScalar(double* v, int64_t n);
void FwhtBlockScalar(double* v, int64_t n, int64_t width);
void GemvScalar(const double* m, int64_t rows, int64_t cols, const double* x,
                double* y);
void GemvBlockScalar(const double* m, int64_t rows, int64_t cols,
                     const double* x, int64_t width, double* y);
void CsrApplyScalar(const int64_t* row_ptr, const int32_t* col_idx,
                    const double* values, int64_t rows, const double* w,
                    double scale, double* y);
void CsrApplyBlockScalar(const int64_t* row_ptr, const int32_t* col_idx,
                         const double* values, int64_t rows, const double* w,
                         int64_t width, double scale, double* y);
void SjltColumnBlockScalar(const double* x, int64_t width, double scale,
                           const int64_t* rows, const double* signs, int64_t s,
                           double* y);
void ScaleScalar(double* v, int64_t n, double a);
void SquaredDistanceTileScalar(const double* const* q, int64_t nq,
                               const double* c, int64_t k, int64_t width,
                               double* out);

#ifdef DPJL_HAVE_AVX2_KERNELS
const KernelOps& Avx2Kernels();
/// Exposed for reuse by the AVX-512 table: the 4x4-transpose GEMV, the
/// len=1/len=2 FWHT butterfly stages (which live below one 512-bit vector),
/// and the generic-width block kernels the AVX-512 table delegates its
/// non-8-lane tails to.
void FwhtAvx2(double* v, int64_t n);
void FwhtLowStagesAvx2(double* v, int64_t n);
void FwhtBlockAvx2(double* v, int64_t n, int64_t width);
void GemvAvx2(const double* m, int64_t rows, int64_t cols, const double* x,
              double* y);
void GemvBlockAvx2(const double* m, int64_t rows, int64_t cols,
                   const double* x, int64_t width, double* y);
void CsrApplyBlockAvx2(const int64_t* row_ptr, const int32_t* col_idx,
                       const double* values, int64_t rows, const double* w,
                       int64_t width, double scale, double* y);
void SjltColumnBlockAvx2(const double* x, int64_t width, double scale,
                         const int64_t* rows, const double* signs, int64_t s,
                         double* y);
void ScaleAvx2(double* v, int64_t n, double a);
void SquaredDistanceTileAvx2(const double* const* q, int64_t nq,
                             const double* c, int64_t k, int64_t width,
                             double* out);
#endif

#ifdef DPJL_HAVE_AVX512_KERNELS
const KernelOps& Avx512Kernels();
#endif

}  // namespace dpjl::internal

#endif  // DPJL_LINALG_KERNELS_X86_H_

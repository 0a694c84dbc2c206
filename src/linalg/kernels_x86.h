#ifndef DPJL_LINALG_KERNELS_X86_H_
#define DPJL_LINALG_KERNELS_X86_H_

#include <cstdint>

#include "src/linalg/kernels.h"

/// Internal glue between the dispatch (kernels.cc) and the per-ISA
/// translation units, which CMake compiles with their own -m flags and
/// -ffp-contract=off. Nothing here is part of the public API.

namespace dpjl::internal {

/// ScalarKernels()'s table, named so a vector kernel's fallback for other
/// widths is a jump, not a call that makes its fast path set up a frame.
extern const KernelOps kScalarKernels;

/// The scalar CSR gather. Every table uses it: the per-row sum is a
/// sequential reduction, which a vector body would reassociate.
void CsrApplyScalar(const int64_t* row_ptr, const int32_t* col_idx,
                    const double* values, int64_t rows, const double* w,
                    double scale, double* y);

#ifdef DPJL_HAVE_AVX2_KERNELS
const KernelOps& Avx2Kernels();
/// The 4x4-transpose GEMV, the one intrinsic holdout, used by both vector
/// tables: it has no lane-generic body, and the bandwidth-bound
/// single-vector product gains nothing from 512-bit vectors.
void GemvAvx2(const double* m, int64_t rows, int64_t cols, const double* x,
              double* y);
#endif

#ifdef DPJL_HAVE_AVX512_KERNELS
const KernelOps& Avx512Kernels();
#endif

}  // namespace dpjl::internal

#endif  // DPJL_LINALG_KERNELS_X86_H_

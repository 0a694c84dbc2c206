// AVX-512 kernel table: the lane-generic bodies of kernels_simd.h at 8
// doubles per vector, one vector per block row. Compiled with -mavx512f
// -ffp-contract=off (no FMA; see kernels.h).

#include "src/linalg/kernels_simd.h"

namespace dpjl::internal {

const KernelOps& Avx512Kernels() {
  static const KernelOps kOps = {
      "avx512",
      Fwht,
      FwhtBlock,
      GemvAvx2,  // intrinsic holdout; see kernels_x86.h
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

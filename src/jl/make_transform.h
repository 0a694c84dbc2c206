#ifndef DPJL_JL_MAKE_TRANSFORM_H_
#define DPJL_JL_MAKE_TRANSFORM_H_

#include <memory>
#include <string>

#include "src/common/enum_names.h"
#include "src/common/result.h"
#include "src/jl/transform.h"

namespace dpjl {

/// The projection families the library ships.
enum class TransformKind {
  kGaussianIid,    // Indyk–Motwani / Kenthapadi baseline
  kFjlt,           // Ailon–Chazelle
  kSjltBlock,      // Kane–Nelson construction (c)
  kSjltGraph,      // Kane–Nelson construction (b)
  kAchlioptas,     // database-friendly ±1
  kSparseUniform,  // with-replacement sparse JL (ablation baseline, §2.1)
};

/// The `--transform` spelling of each kind; "sjlt" and "gaussian" are
/// short aliases that only parse.
inline constexpr EnumName<TransformKind> kTransformKindNames[] = {
    {TransformKind::kGaussianIid, "gaussian-iid"},
    {TransformKind::kFjlt, "fjlt"},
    {TransformKind::kSjltBlock, "sjlt-block"},
    {TransformKind::kSjltGraph, "sjlt-graph"},
    {TransformKind::kAchlioptas, "achlioptas"},
    {TransformKind::kSparseUniform, "sparse-uniform"},
    {TransformKind::kSjltBlock, "sjlt"},
    {TransformKind::kGaussianIid, "gaussian"},
};

std::string TransformKindName(TransformKind kind);

/// Builds a transform for target distortion `alpha` and failure probability
/// `beta` (both in (0, 1/2)), deriving k, sparsity, density and hash
/// independence from src/jl/dims.h. For the block SJLT, k is rounded up to
/// a multiple of s.
Result<std::unique_ptr<LinearTransform>> MakeTransform(TransformKind kind,
                                                       int64_t d, double alpha,
                                                       double beta,
                                                       uint64_t seed);

/// As MakeTransform but with an explicit output dimension `k` (and, for the
/// SJLT kinds, explicit sparsity `s`); used by benches that sweep k/s
/// directly. `beta` still controls FJLT density and hash independence.
Result<std::unique_ptr<LinearTransform>> MakeTransformExplicit(
    TransformKind kind, int64_t d, int64_t k, int64_t s, double beta,
    uint64_t seed);

}  // namespace dpjl

#endif  // DPJL_JL_MAKE_TRANSFORM_H_

#include "src/jl/make_transform.h"

#include "src/jl/achlioptas.h"
#include "src/jl/dims.h"
#include "src/jl/fjlt.h"
#include "src/jl/gaussian_jl.h"
#include "src/jl/sjlt.h"
#include "src/jl/sparse_uniform.h"
#include "src/linalg/hadamard.h"

namespace dpjl {

std::string TransformKindName(TransformKind kind) {
  return std::string(NameOf(kTransformKindNames, kind));
}

Result<std::unique_ptr<LinearTransform>> MakeTransform(TransformKind kind,
                                                       int64_t d, double alpha,
                                                       double beta,
                                                       uint64_t seed) {
  DPJL_ASSIGN_OR_RETURN(int64_t k, OutputDimension(alpha, beta));
  DPJL_ASSIGN_OR_RETURN(int64_t s, KaneNelsonSparsity(alpha, beta));
  return MakeTransformExplicit(kind, d, k, s, beta, seed);
}

Result<std::unique_ptr<LinearTransform>> MakeTransformExplicit(
    TransformKind kind, int64_t d, int64_t k, int64_t s, double beta,
    uint64_t seed) {
  switch (kind) {
    case TransformKind::kGaussianIid: {
      DPJL_ASSIGN_OR_RETURN(std::unique_ptr<GaussianJl> t,
                            GaussianJl::Create(d, k, seed));
      return std::unique_ptr<LinearTransform>(std::move(t));
    }
    case TransformKind::kFjlt: {
      DPJL_ASSIGN_OR_RETURN(double q, FjltDensity(beta, NextPowerOfTwo(d)));
      DPJL_ASSIGN_OR_RETURN(std::unique_ptr<Fjlt> t, Fjlt::Create(d, k, q, seed));
      return std::unique_ptr<LinearTransform>(std::move(t));
    }
    case TransformKind::kSjltBlock: {
      const int64_t k_rounded = RoundUpToMultiple(k, s);
      DPJL_ASSIGN_OR_RETURN(int wise, HashIndependence(beta));
      DPJL_ASSIGN_OR_RETURN(
          std::unique_ptr<Sjlt> t,
          Sjlt::Create(d, k_rounded, s, SjltConstruction::kBlock, wise, seed));
      return std::unique_ptr<LinearTransform>(std::move(t));
    }
    case TransformKind::kSjltGraph: {
      DPJL_ASSIGN_OR_RETURN(int wise, HashIndependence(beta));
      DPJL_ASSIGN_OR_RETURN(
          std::unique_ptr<Sjlt> t,
          Sjlt::Create(d, k, s, SjltConstruction::kGraph, wise, seed));
      return std::unique_ptr<LinearTransform>(std::move(t));
    }
    case TransformKind::kAchlioptas: {
      DPJL_ASSIGN_OR_RETURN(std::unique_ptr<AchlioptasJl> t,
                            AchlioptasJl::Create(d, k, seed));
      return std::unique_ptr<LinearTransform>(std::move(t));
    }
    case TransformKind::kSparseUniform: {
      DPJL_ASSIGN_OR_RETURN(std::unique_ptr<SparseUniformJl> t,
                            SparseUniformJl::Create(d, k, s, seed));
      return std::unique_ptr<LinearTransform>(std::move(t));
    }
  }
  return Status::InvalidArgument("unknown transform kind");
}

}  // namespace dpjl

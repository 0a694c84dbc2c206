#include "src/core/estimators.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/jl/transform.h"
#include "src/linalg/kernels.h"

namespace dpjl {

namespace {

Status CheckCompatible(const PrivateSketch& a, const PrivateSketch& b) {
  if (!a.metadata().CompatibleWith(b.metadata())) {
    return Status::FailedPrecondition(
        "sketches come from different projections and cannot be compared");
  }
  return Status::OK();
}

}  // namespace

Result<double> EstimateSquaredDistance(const PrivateSketch& a,
                                       const PrivateSketch& b) {
  DPJL_RETURN_IF_ERROR(CheckCompatible(a, b));
  const std::vector<double>& av = a.values();
  const std::vector<double>& bv = b.values();
  double diff_sq = 0.0;
  for (size_t i = 0; i < av.size(); ++i) {
    const double diff = av[i] - bv[i];
    diff_sq += diff * diff;
  }
  return diff_sq - a.metadata().noise_center - b.metadata().noise_center;
}

void EstimateSquaredDistanceTile(const double* const* queries,
                                 const double* query_centers,
                                 int64_t num_probes, int64_t k,
                                 const double* block,
                                 const double* candidate_centers,
                                 int64_t width, double* out) {
  // The kernel always runs the full kSketchBlockWidth lane stride (that is
  // the storage layout); only the width live lanes get the center epilogue.
  Kernels().squared_distance_tile(queries, num_probes, block, k,
                                  kSketchBlockWidth, out);
  for (int64_t p = 0; p < num_probes; ++p) {
    double* row = out + p * kSketchBlockWidth;
    for (int64_t t = 0; t < width; ++t) {
      row[t] = row[t] - query_centers[p] - candidate_centers[t];
    }
  }
}

double EstimateSquaredNorm(const PrivateSketch& a) {
  return a.RawSquaredNorm() - a.metadata().noise_center;
}

Result<double> EstimateInnerProduct(const PrivateSketch& a,
                                    const PrivateSketch& b) {
  DPJL_ASSIGN_OR_RETURN(double dist_sq, EstimateSquaredDistance(a, b));
  return 0.5 * (EstimateSquaredNorm(a) + EstimateSquaredNorm(b) - dist_sq);
}

Result<double> EstimateDistance(const PrivateSketch& a, const PrivateSketch& b) {
  DPJL_ASSIGN_OR_RETURN(double dist_sq, EstimateSquaredDistance(a, b));
  return std::sqrt(std::max(0.0, dist_sq));
}

double ChebyshevHalfWidth(double variance, double failure_prob) {
  DPJL_CHECK(variance >= 0, "variance must be non-negative");
  DPJL_CHECK(failure_prob > 0 && failure_prob < 1,
             "failure probability must lie in (0, 1)");
  return std::sqrt(variance / failure_prob);
}

Result<double> EstimateCosineSimilarity(const PrivateSketch& a,
                                        const PrivateSketch& b) {
  DPJL_ASSIGN_OR_RETURN(double inner, EstimateInnerProduct(a, b));
  const double norm_a_sq = EstimateSquaredNorm(a);
  const double norm_b_sq = EstimateSquaredNorm(b);
  if (!(norm_a_sq > 0.0) || !(norm_b_sq > 0.0)) {
    return Status::FailedPrecondition(
        "noisy norm estimate is non-positive; vectors are below the noise "
        "floor");
  }
  const double cosine = inner / std::sqrt(norm_a_sq * norm_b_sq);
  return std::clamp(cosine, -1.0, 1.0);
}

Result<double> EstimateSquaredDistanceMedianOfMeans(const PrivateSketch& a,
                                                    const PrivateSketch& b,
                                                    int64_t groups) {
  DPJL_RETURN_IF_ERROR(CheckCompatible(a, b));
  const int64_t k = a.metadata().output_dim;
  if (groups < 1 || k % groups != 0) {
    return Status::InvalidArgument(
        "groups must be >= 1 and divide the sketch dimension");
  }
  const int64_t block = k / groups;
  const double centers = a.metadata().noise_center + b.metadata().noise_center;
  const std::vector<double>& av = a.values();
  const std::vector<double>& bv = b.values();
  // Per-group unbiased estimate: coordinates are exchangeable under the
  // projection draw, so E||diff_g||^2 = (block/k)(||z||^2 + centers) and
  // (k/block) ||diff_g||^2 - centers is unbiased per group.
  std::vector<double> estimates(static_cast<size_t>(groups));
  for (int64_t g = 0; g < groups; ++g) {
    double diff_sq = 0.0;
    for (int64_t i = g * block; i < (g + 1) * block; ++i) {
      const double diff = av[i] - bv[i];
      diff_sq += diff * diff;
    }
    estimates[g] =
        static_cast<double>(groups) * diff_sq - centers;
  }
  std::nth_element(estimates.begin(),
                   estimates.begin() + static_cast<int64_t>(groups) / 2,
                   estimates.end());
  const double upper = estimates[static_cast<size_t>(groups) / 2];
  if (groups % 2 == 1) return upper;
  const double lower =
      *std::max_element(estimates.begin(),
                        estimates.begin() + static_cast<int64_t>(groups) / 2);
  return 0.5 * (lower + upper);
}

}  // namespace dpjl

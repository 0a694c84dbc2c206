#ifndef DPJL_CORE_ESTIMATORS_H_
#define DPJL_CORE_ESTIMATORS_H_

#include "src/common/result.h"
#include "src/core/sketch.h"

namespace dpjl {

/// Unbiased estimators over released sketches (Section 4, Lemma 3).
///
/// With sketches a = S x + eta and b = S y + mu (or the input-perturbed
/// forms), the estimator
///   E_hat = ||a - b||^2 - center(a) - center(b)
/// is unbiased for ||x - y||_2^2, where center(.) is the expected noise
/// inflation carried in the sketch metadata (k E[eta^2] for output
/// placement, d E[eta^2] for input placement). This generalizes the paper's
/// "- 2 k E[eta^2]" to pairs with heterogeneous noise.
///
/// All estimators validate metadata compatibility (same transform family,
/// dimensions and public seed) and return Status on mismatch: comparing
/// sketches from different projections silently yields garbage, which the
/// library refuses to do.

/// Unbiased estimate of ||x - y||_2^2.
Result<double> EstimateSquaredDistance(const PrivateSketch& a,
                                       const PrivateSketch& b);

/// Multi-probe, multi-candidate form of EstimateSquaredDistance over one
/// lane-interleaved candidate block (the kernels.h column-block layout:
/// element j of candidate t at `block[j * kSketchBlockWidth + t]`). For
/// each probe p < num_probes (at most kScanTileProbes) and t < width,
///   out[p*W + t] = (sum_j (queries[p][j] - block[j*W + t])^2
///                   - query_centers[p]) - candidate_centers[t],
/// with W = kSketchBlockWidth and the identical per-pair operation order
/// (ascending j, one accumulator, multiply-then-add, centers subtracted
/// probe-first) as the scalar estimator — byte-identical output in every
/// kernel dispatch mode, whatever other probes share the tile. One
/// squared_distance_tile call scores every probe, so the block streams
/// from memory once per tile instead of once per probe. Compatibility
/// must already be established by the caller: this is the per-block inner
/// loop, checked once per query, not once per candidate. `out` must hold
/// num_probes * kSketchBlockWidth doubles; lanes >= width of each row are
/// scratch (zero-padded candidates leave garbage there).
void EstimateSquaredDistanceTile(const double* const* queries,
                                 const double* query_centers,
                                 int64_t num_probes, int64_t k,
                                 const double* block,
                                 const double* candidate_centers,
                                 int64_t width, double* out);

/// Unbiased estimate of ||x||_2^2 from a single sketch:
/// ||a||^2 - center(a).
double EstimateSquaredNorm(const PrivateSketch& a);

/// Unbiased estimate of <x, y> via the polarization identity
/// (Definition 4's closing note):
///   <x,y> = (||x||^2 + ||y||^2 - ||x - y||^2) / 2.
Result<double> EstimateInnerProduct(const PrivateSketch& a,
                                    const PrivateSketch& b);

/// Euclidean (non-squared) distance estimate: sqrt(max(0, squared)).
/// Clamping introduces bias when the true distance is near zero relative to
/// the noise floor; the squared estimator is the unbiased primitive.
Result<double> EstimateDistance(const PrivateSketch& a, const PrivateSketch& b);

/// Two-sided Chebyshev confidence half-width for a squared-distance
/// estimate with predicted variance `variance` at coverage 1 - failure_prob:
///   halfwidth = sqrt(variance / failure_prob).
double ChebyshevHalfWidth(double variance, double failure_prob);

/// Cosine similarity estimate via the inner-product and norm estimators:
///   <x,y> / (||x|| ||y||), clamped to [-1, 1].
/// Fails (kFailedPrecondition) when a noisy norm estimate is non-positive —
/// the vectors are then too small relative to the noise floor for the
/// ratio to mean anything, which the library reports rather than hides.
Result<double> EstimateCosineSimilarity(const PrivateSketch& a,
                                        const PrivateSketch& b);

/// Median-of-means squared-distance estimate: splits the k coordinates
/// into `groups` equal blocks, forms the Lemma-3 estimate per block, and
/// returns the median.
///
/// Trade-off (measured in core_extensions_test): under the calibrated
/// Laplace/Gaussian noise the plain mean is strictly better — each block
/// estimate carries ~groups x the variance and the median of the skewed
/// block noise adds a downward bias bounded by one standard deviation of
/// the plain estimator. The median's value is *robustness*: it tolerates
/// up to floor((groups-1)/2) corrupted blocks (a malformed coordinate from
/// a buggy or malicious serialization, an fp-corrupted entry), where the
/// plain mean is destroyed by a single bad coordinate. Use it as a
/// cross-check or when ingesting sketches from untrusted encoders.
/// Requires `groups >= 1` and `groups` dividing the sketch dimension.
Result<double> EstimateSquaredDistanceMedianOfMeans(const PrivateSketch& a,
                                                    const PrivateSketch& b,
                                                    int64_t groups);

}  // namespace dpjl

#endif  // DPJL_CORE_ESTIMATORS_H_

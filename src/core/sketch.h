#ifndef DPJL_CORE_SKETCH_H_
#define DPJL_CORE_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/enum_names.h"
#include "src/common/result.h"
#include "src/dp/noise_distribution.h"
#include "src/dp/privacy_params.h"
#include "src/jl/make_transform.h"

namespace dpjl {

/// Where the calibrated noise is injected (Section 5.2 vs Section 6.2).
enum class NoisePlacement {
  /// Perturb the projection: release S x + eta (Kenthapadi-style; the
  /// paper's SJLT and FJLT-output constructions).
  kOutput,
  /// Perturb the input: release S (x + eta) (the paper's Lemma 8 FJLT
  /// variant, which avoids the sensitivity-initialization cost at the price
  /// of d-dependent variance).
  kInput,
  /// FJLT only, Gaussian noise only: perturb after the Hadamard rotation,
  /// releasing P(H D x + eta) (the paper's Note 7). By spherical symmetry
  /// of the Gaussian this is distributed identically to input placement,
  /// but implementations may skip noise coordinates for all-zero columns
  /// of P — "saving a bit of randomness". Privacy: H D is an isometry, so
  /// the pre-noise l2 shift between neighbors is still at most 1.
  kPostHadamard,
};

/// The `--placement` spelling of each placement; also how sketch
/// descriptions and `inspect` name it.
inline constexpr EnumName<NoisePlacement> kPlacementNames[] = {
    {NoisePlacement::kOutput, "output"},
    {NoisePlacement::kInput, "input"},
    {NoisePlacement::kPostHadamard, "post-hadamard"},
};

std::string PlacementFlagName(NoisePlacement placement);

/// Everything a receiving party needs to interpret a sketch, embedded in
/// the released artifact itself. All fields are public by design — in the
/// distributed setting of the paper only the noise *realization* is secret;
/// the projection seed, dimensions and noise distribution are shared.
struct SketchMetadata {
  /// Transform identity: two sketches are comparable iff these five agree.
  TransformKind transform = TransformKind::kSjltBlock;
  int64_t input_dim = 0;   // d
  int64_t output_dim = 0;  // k
  int64_t sparsity = 0;    // s (0 for non-sparse transforms)
  uint64_t projection_seed = 0;

  NoisePlacement placement = NoisePlacement::kOutput;
  NoiseDistribution::Kind noise_kind = NoiseDistribution::Kind::kNone;
  double noise_scale = 0.0;

  /// Expected noise contribution of THIS sketch to a squared-distance
  /// estimate: k * E[eta^2] for output placement, d * E[eta^2] for input
  /// placement (by LPP, E||S eta||^2 = E||eta||^2). The estimator subtracts
  /// the two sketches' centers — this is the "- 2k E[eta^2]" of Lemma 3,
  /// generalized to heterogeneous pairs.
  double noise_center = 0.0;

  /// Privacy guarantee of this release (epsilon = 0 marks a non-private
  /// baseline sketch).
  double epsilon = 0.0;
  double delta = 0.0;

  /// True iff the sketch identities match (comparable sketches).
  bool CompatibleWith(const SketchMetadata& other) const;
};

/// A released, differentially private sketch: the noisy projection plus its
/// self-describing metadata. This is the artifact parties exchange; it
/// serializes to a compact binary string.
class PrivateSketch {
 public:
  PrivateSketch() = default;
  PrivateSketch(std::vector<double> values, SketchMetadata metadata);

  const std::vector<double>& values() const { return values_; }
  const SketchMetadata& metadata() const { return metadata_; }

  /// ||values||_2^2 minus nothing — raw, for estimator internals. Computed
  /// once at construction (values are immutable afterwards), so repeated
  /// calls from estimator inner loops cost a load, not an O(k) rescan.
  double RawSquaredNorm() const { return raw_squared_norm_; }

  /// Binary serialization (little-endian, versioned header).
  [[nodiscard]] std::string Serialize() const;
  static Result<PrivateSketch> Deserialize(const std::string& bytes);

 private:
  std::vector<double> values_;
  SketchMetadata metadata_;
  double raw_squared_norm_ = 0.0;
};

}  // namespace dpjl

#endif  // DPJL_CORE_SKETCH_H_

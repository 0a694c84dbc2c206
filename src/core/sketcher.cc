#include "src/core/sketcher.h"

#include <cmath>

#include "src/common/check.h"
#include "src/jl/dims.h"
#include "src/random/rng.h"

namespace dpjl {

namespace {

Result<Mechanism> BuildMechanism(const SketcherConfig& config,
                                 const Sensitivities& sens) {
  using Selection = SketcherConfig::NoiseSelection;
  if (config.noise_selection == Selection::kNone) {
    return Mechanism::NonPrivate();
  }
  DPJL_ASSIGN_OR_RETURN(PrivacyParams params,
                        PrivacyParams::Create(config.epsilon, config.delta));
  switch (config.noise_selection) {
    case Selection::kAuto:
      return Mechanism::Choose(sens, params);
    case Selection::kLaplace:
      return Mechanism::Laplace(sens.l1, params.epsilon);
    case Selection::kGaussian:
      return Mechanism::Gaussian(sens.l2, params);
    case Selection::kNone:
      break;  // handled above
  }
  return Status::Internal("unhandled noise selection");
}

}  // namespace

Result<PrivateSketcher> PrivateSketcher::Create(int64_t d,
                                                const SketcherConfig& config) {
  if (d < 1) {
    return Status::InvalidArgument("input dimension must be >= 1");
  }
  int64_t k = config.k_override;
  int64_t s = config.s_override;
  if (k == 0) {
    DPJL_ASSIGN_OR_RETURN(k, OutputDimension(config.alpha, config.beta));
  }
  if (s == 0) {
    DPJL_ASSIGN_OR_RETURN(s, KaneNelsonSparsity(config.alpha, config.beta));
  }
  if (s > k) s = k;
  DPJL_ASSIGN_OR_RETURN(
      std::unique_ptr<LinearTransform> transform,
      MakeTransformExplicit(config.transform, d, k, s, config.beta,
                            config.projection_seed));

  const bool is_sjlt = config.transform == TransformKind::kSjltBlock ||
                       config.transform == TransformKind::kSjltGraph;
  const Fjlt* fjlt_view = config.transform == TransformKind::kFjlt
                              ? static_cast<const Fjlt*>(transform.get())
                              : nullptr;

  Sensitivities sens;
  if (config.placement == NoisePlacement::kInput ||
      config.placement == NoisePlacement::kPostHadamard) {
    if (fjlt_view == nullptr) {
      return Status::InvalidArgument(
          "input-/post-Hadamard-noise placement is analyzed for the FJLT "
          "only (Lemma 8 / Note 7)");
    }
    if (config.placement == NoisePlacement::kPostHadamard &&
        config.noise_selection != SketcherConfig::NoiseSelection::kNone) {
      // Note 7 relies on the spherical symmetry of the Gaussian; the l1
      // sensitivity after the Hadamard rotation is sqrt(d), so Laplace
      // calibration at Delta_1 = 1 would NOT be private here.
      if (config.noise_selection == SketcherConfig::NoiseSelection::kLaplace ||
          config.delta == 0.0) {
        return Status::InvalidArgument(
            "post-Hadamard placement requires Gaussian noise (delta > 0)");
      }
    }
    // Perturbing the (rotated) input: the pre-noise query has l2 shift at
    // most ||x - x'||_2 <= 1 between neighbors; for plain input placement
    // Delta_1 = 1 as well.
    sens = Sensitivities{1.0, 1.0};
  } else {
    // Output placement pays the transform's sensitivity-initialization
    // cost here (exact scan; O(1) for the SJLT).
    sens = transform->ExactSensitivities();
  }
  SketcherConfig effective = config;
  if (config.placement == NoisePlacement::kPostHadamard &&
      config.noise_selection == SketcherConfig::NoiseSelection::kAuto) {
    effective.noise_selection = SketcherConfig::NoiseSelection::kGaussian;
  }
  DPJL_ASSIGN_OR_RETURN(Mechanism mechanism, BuildMechanism(effective, sens));
  return PrivateSketcher(config, std::move(transform), fjlt_view,
                         std::move(mechanism), is_sjlt ? s : 0);
}

PrivateSketcher::PrivateSketcher(SketcherConfig config,
                                 std::unique_ptr<LinearTransform> transform,
                                 const Fjlt* fjlt_view, Mechanism mechanism,
                                 int64_t sparsity)
    : config_(config),
      transform_(std::move(transform)),
      fjlt_view_(fjlt_view),
      mechanism_(std::move(mechanism)),
      sparsity_(sparsity) {}

SketchMetadata PrivateSketcher::MetadataTemplate() const {
  SketchMetadata meta;
  meta.transform = config_.transform;
  meta.input_dim = transform_->input_dim();
  meta.output_dim = transform_->output_dim();
  meta.sparsity = sparsity_;
  meta.projection_seed = config_.projection_seed;
  meta.placement = config_.placement;
  meta.noise_kind = mechanism_.distribution().kind();
  meta.noise_scale = mechanism_.distribution().scale();
  const double m2 = mechanism_.NoiseSecondMoment();
  switch (config_.placement) {
    case NoisePlacement::kOutput:
      meta.noise_center = static_cast<double>(transform_->output_dim()) * m2;
      break;
    case NoisePlacement::kInput:
      meta.noise_center = static_cast<double>(transform_->input_dim()) * m2;
      break;
    case NoisePlacement::kPostHadamard:
      // Noise lives on the d_pad transformed coordinates; unused-column
      // skipping does not change the expectation because those columns
      // contribute zero anyway.
      meta.noise_center = static_cast<double>(fjlt_view_->padded_dim()) * m2;
      break;
  }
  if (mechanism_.private_release()) {
    meta.epsilon = mechanism_.params().epsilon;
    meta.delta = mechanism_.params().delta;
  }
  return meta;
}

PrivateSketch PrivateSketcher::Sketch(const std::vector<double>& x,
                                      uint64_t noise_seed) const {
  DPJL_CHECK(static_cast<int64_t>(x.size()) == transform_->input_dim(),
             "input dimension mismatch");
  Rng rng(noise_seed);
  std::vector<double> values;
  switch (config_.placement) {
    case NoisePlacement::kOutput: {
      values = transform_->Apply(x);
      mechanism_.AddNoise(&values, &rng);
      break;
    }
    case NoisePlacement::kInput: {
      std::vector<double> perturbed = x;
      mechanism_.AddNoise(&perturbed, &rng);
      values = transform_->Apply(perturbed);
      break;
    }
    case NoisePlacement::kPostHadamard: {
      const double stddev = mechanism_.private_release()
                                ? mechanism_.distribution().scale()
                                : 0.0;
      values = fjlt_view_->ApplyWithPostHadamardNoise(x, stddev, &rng);
      break;
    }
  }
  return PrivateSketch(std::move(values), MetadataTemplate());
}

void PrivateSketcher::SketchBlock(const std::vector<double>* xs, int64_t count,
                                  const uint64_t* noise_seeds,
                                  PrivateSketch* out) const {
  if (count <= 0) return;
  const SketchMetadata meta = MetadataTemplate();
  std::vector<double> scratch;
  std::vector<std::vector<double>> values(static_cast<size_t>(count));
  switch (config_.placement) {
    case NoisePlacement::kOutput: {
      transform_->ApplyBlock(xs, count, values.data(), &scratch);
      for (int64_t i = 0; i < count; ++i) {
        Rng rng(noise_seeds[i]);
        mechanism_.AddNoise(&values[static_cast<size_t>(i)], &rng);
      }
      break;
    }
    case NoisePlacement::kInput: {
      // Per-item input perturbation first (the serial draw order), then one
      // block transform over the perturbed vectors.
      std::vector<std::vector<double>> perturbed(xs, xs + count);
      for (int64_t i = 0; i < count; ++i) {
        Rng rng(noise_seeds[i]);
        mechanism_.AddNoise(&perturbed[static_cast<size_t>(i)], &rng);
      }
      transform_->ApplyBlock(perturbed.data(), count, values.data(), &scratch);
      break;
    }
    case NoisePlacement::kPostHadamard: {
      const double stddev = mechanism_.private_release()
                                ? mechanism_.distribution().scale()
                                : 0.0;
      std::vector<Rng> rngs;
      rngs.reserve(static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) rngs.emplace_back(noise_seeds[i]);
      fjlt_view_->ApplyBlockWithPostHadamardNoise(xs, count, stddev,
                                                  rngs.data(), values.data(),
                                                  &scratch);
      break;
    }
  }
  for (int64_t i = 0; i < count; ++i) {
    out[i] = PrivateSketch(std::move(values[static_cast<size_t>(i)]), meta);
  }
}

PrivateSketch PrivateSketcher::SketchSparse(const SparseVector& x,
                                            uint64_t noise_seed) const {
  DPJL_CHECK(x.dim() == transform_->input_dim(), "input dimension mismatch");
  if (config_.placement == NoisePlacement::kInput) {
    // Input noise densifies the vector anyway; take the dense path.
    return Sketch(x.ToDense(), noise_seed);
  }
  Rng rng(noise_seed);
  std::vector<double> values = transform_->ApplySparse(x);
  mechanism_.AddNoise(&values, &rng);
  return PrivateSketch(std::move(values), MetadataTemplate());
}

VarianceBreakdown PrivateSketcher::PredictVariance(double z2sq,
                                                   double z4p4) const {
  if (config_.placement == NoisePlacement::kOutput) {
    return PredictVarianceOutput(*transform_, mechanism_.distribution(), z2sq,
                                 z4p4);
  }
  DPJL_CHECK(fjlt_view_ != nullptr, "input placement requires an FJLT");
  return PredictVarianceInputFjlt(*fjlt_view_, mechanism_.distribution(), z2sq,
                                  z4p4);
}

std::string PrivateSketcher::Describe() const {
  std::string out = transform_->Name();
  out += " + ";
  out += mechanism_.Name();
  out += " [" + PlacementFlagName(config_.placement) + "-noise]";
  return out;
}

}  // namespace dpjl

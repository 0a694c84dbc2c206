#include "src/core/sketch.h"

#include "src/common/bytes.h"
#include "src/common/check.h"

namespace dpjl {

namespace {

constexpr std::string_view kMagic = "DPJLSK01";

}  // namespace

std::string PlacementFlagName(NoisePlacement placement) {
  switch (placement) {
    case NoisePlacement::kOutput:
      return "output";
    case NoisePlacement::kInput:
      return "input";
    case NoisePlacement::kPostHadamard:
      return "post-hadamard";
  }
  return "output";
}

bool SketchMetadata::CompatibleWith(const SketchMetadata& other) const {
  return transform == other.transform && input_dim == other.input_dim &&
         output_dim == other.output_dim && sparsity == other.sparsity &&
         projection_seed == other.projection_seed;
}

PrivateSketch::PrivateSketch(std::vector<double> values, SketchMetadata metadata)
    : values_(std::move(values)), metadata_(metadata) {
  DPJL_CHECK(static_cast<int64_t>(values_.size()) == metadata_.output_dim,
             "sketch length must equal the transform output dimension");
  // Ascending-index accumulation: the cached value is bit-identical to
  // what the former on-demand loop returned.
  double acc = 0.0;
  for (double v : values_) acc += v * v;
  raw_squared_norm_ = acc;
}

std::string PrivateSketch::Serialize() const {
  ByteWriter out;
  out.Reserve(kMagic.size() + 96 + values_.size() * sizeof(double));
  out.Raw(kMagic);
  out.Pod(static_cast<int32_t>(metadata_.transform));
  out.Pod(metadata_.input_dim);
  out.Pod(metadata_.output_dim);
  out.Pod(metadata_.sparsity);
  out.Pod(metadata_.projection_seed);
  out.Pod(static_cast<int32_t>(metadata_.placement));
  out.Pod(static_cast<int32_t>(metadata_.noise_kind));
  out.Pod(metadata_.noise_scale);
  out.Pod(metadata_.noise_center);
  out.Pod(metadata_.epsilon);
  out.Pod(metadata_.delta);
  out.Pod(static_cast<int64_t>(values_.size()));
  out.PodArray(values_.data(), values_.size());
  return std::move(out).Take();
}

Result<PrivateSketch> PrivateSketch::Deserialize(const std::string& bytes) {
  ByteReader in(bytes);
  if (!in.Magic(kMagic)) {
    return Status::DataLoss("bad sketch magic/version");
  }
  SketchMetadata meta;
  int32_t transform = 0;
  int32_t placement = 0;
  int32_t noise_kind = 0;
  int64_t count = 0;
  in.Pod(&transform);
  in.Pod(&meta.input_dim);
  in.Pod(&meta.output_dim);
  in.Pod(&meta.sparsity);
  in.Pod(&meta.projection_seed);
  in.Pod(&placement);
  in.Pod(&noise_kind);
  in.Pod(&meta.noise_scale);
  in.Pod(&meta.noise_center);
  in.Pod(&meta.epsilon);
  in.Pod(&meta.delta);
  if (!in.Pod(&count)) {
    return Status::DataLoss("truncated sketch header");
  }
  if (count < 0 || count != meta.output_dim) {
    return Status::DataLoss("sketch value count does not match metadata");
  }
  // The enum fields come from files and peers: a value outside the declared
  // enumerators is corruption, never a kind this build can interpret.
  if (transform < 0 ||
      transform > static_cast<int32_t>(TransformKind::kSparseUniform) ||
      placement < 0 ||
      placement > static_cast<int32_t>(NoisePlacement::kPostHadamard) ||
      noise_kind < 0 ||
      noise_kind >
          static_cast<int32_t>(NoiseDistribution::Kind::kDiscreteGaussian)) {
    return Status::DataLoss(
        "sketch metadata names an unknown transform, placement or noise kind");
  }
  meta.transform = static_cast<TransformKind>(transform);
  meta.placement = static_cast<NoisePlacement>(placement);
  meta.noise_kind = static_cast<NoiseDistribution::Kind>(noise_kind);
  // The reader checks `count` against the bytes present before allocating,
  // so a forged count fails here instead of asking for 2^61 doubles.
  std::vector<double> values;
  in.PodArray(static_cast<uint64_t>(count), &values);
  DPJL_RETURN_IF_ERROR(in.Finish("sketch payload"));
  return PrivateSketch(std::move(values), meta);
}

}  // namespace dpjl

#include <cstring>

#include <gtest/gtest.h>

#include "src/core/sketch.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;

SketchMetadata MakeMeta() {
  SketchMetadata meta;
  meta.transform = TransformKind::kSjltBlock;
  meta.input_dim = 100;
  meta.output_dim = 4;
  meta.sparsity = 2;
  meta.projection_seed = kTestSeed;
  meta.placement = NoisePlacement::kOutput;
  meta.noise_kind = NoiseDistribution::Kind::kLaplace;
  meta.noise_scale = 1.5;
  meta.noise_center = 4.0 * 2.0 * 1.5 * 1.5;
  meta.epsilon = 1.0;
  meta.delta = 0.0;
  return meta;
}

TEST(SketchTest, RawSquaredNorm) {
  PrivateSketch s({1.0, -2.0, 2.0, 0.0}, MakeMeta());
  EXPECT_DOUBLE_EQ(s.RawSquaredNorm(), 9.0);
}

TEST(SketchTest, SerializeRoundTrip) {
  const PrivateSketch original({0.5, -1.25, 3.75, 42.0}, MakeMeta());
  const std::string bytes = original.Serialize();
  const PrivateSketch decoded = PrivateSketch::Deserialize(bytes).value();
  EXPECT_EQ(decoded.values(), original.values());
  const SketchMetadata& m = decoded.metadata();
  const SketchMetadata& o = original.metadata();
  EXPECT_EQ(m.transform, o.transform);
  EXPECT_EQ(m.input_dim, o.input_dim);
  EXPECT_EQ(m.output_dim, o.output_dim);
  EXPECT_EQ(m.sparsity, o.sparsity);
  EXPECT_EQ(m.projection_seed, o.projection_seed);
  EXPECT_EQ(m.placement, o.placement);
  EXPECT_EQ(m.noise_kind, o.noise_kind);
  EXPECT_DOUBLE_EQ(m.noise_scale, o.noise_scale);
  EXPECT_DOUBLE_EQ(m.noise_center, o.noise_center);
  EXPECT_DOUBLE_EQ(m.epsilon, o.epsilon);
  EXPECT_DOUBLE_EQ(m.delta, o.delta);
}

TEST(SketchTest, DeserializeRejectsBadMagic) {
  std::string bytes = PrivateSketch({1.0, 2.0, 3.0, 4.0}, MakeMeta()).Serialize();
  bytes[0] = 'X';
  const auto result = PrivateSketch::Deserialize(bytes);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(SketchTest, DeserializeRejectsOutOfRangeEnumFields) {
  // Wire offsets of the int32 enum fields: after the 8-byte magic comes
  // transform, then input_dim/output_dim/sparsity/projection_seed (8 bytes
  // each), then placement and noise_kind.
  const std::string good =
      PrivateSketch({1.0, 2.0, 3.0, 4.0}, MakeMeta()).Serialize();
  const auto patched = [&good](size_t offset, int32_t value) {
    std::string bytes = good;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  struct Case {
    const char* field;
    size_t offset;
    int32_t bad;
    int32_t last_valid;
  };
  for (const Case& c : {
           Case{"transform", 8, 99,
                static_cast<int32_t>(TransformKind::kSparseUniform)},
           Case{"placement", 44, 7,
                static_cast<int32_t>(NoisePlacement::kPostHadamard)},
           Case{"noise_kind", 48, 42,
                static_cast<int32_t>(
                    NoiseDistribution::Kind::kDiscreteGaussian)},
       }) {
    SCOPED_TRACE(c.field);
    for (const int32_t bad : {c.bad, c.last_valid + 1, int32_t{-1}}) {
      const auto result = PrivateSketch::Deserialize(patched(c.offset, bad));
      EXPECT_FALSE(result.ok()) << bad;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << bad;
    }
    EXPECT_TRUE(
        PrivateSketch::Deserialize(patched(c.offset, c.last_valid)).ok());
  }
}

TEST(SketchTest, DeserializeRejectsTruncation) {
  const std::string bytes =
      PrivateSketch({1.0, 2.0, 3.0, 4.0}, MakeMeta()).Serialize();
  for (size_t cut : {size_t{4}, size_t{20}, bytes.size() - 3}) {
    const auto result = PrivateSketch::Deserialize(bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
  }
}

TEST(SketchTest, DeserializeRejectsTrailingGarbage) {
  std::string bytes = PrivateSketch({1.0, 2.0, 3.0, 4.0}, MakeMeta()).Serialize();
  bytes += "extra";
  EXPECT_FALSE(PrivateSketch::Deserialize(bytes).ok());
}

TEST(SketchTest, DeserializeRejectsAWrappingValueCount) {
  const std::string forged = testing::ForgedCountSketchBlob();
  ASSERT_EQ(forged.size(), 108u);
  const auto result = PrivateSketch::Deserialize(forged);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(SketchMetadataTest, CompatibilityIgnoresNoiseFields) {
  SketchMetadata a = MakeMeta();
  SketchMetadata b = MakeMeta();
  b.noise_scale = 99.0;
  b.epsilon = 0.1;
  b.noise_kind = NoiseDistribution::Kind::kGaussian;
  EXPECT_TRUE(a.CompatibleWith(b));  // heterogeneous noise is fine
}

TEST(SketchMetadataTest, CompatibilityRequiresSameProjection) {
  const SketchMetadata a = MakeMeta();
  SketchMetadata b = MakeMeta();
  b.projection_seed = kTestSeed + 1;
  EXPECT_FALSE(a.CompatibleWith(b));
  SketchMetadata c = MakeMeta();
  c.transform = TransformKind::kSjltGraph;
  EXPECT_FALSE(a.CompatibleWith(c));
  SketchMetadata d = MakeMeta();
  d.output_dim = 8;
  EXPECT_FALSE(a.CompatibleWith(d));
  SketchMetadata e = MakeMeta();
  e.input_dim = 101;
  EXPECT_FALSE(a.CompatibleWith(e));
  SketchMetadata f = MakeMeta();
  f.sparsity = 4;
  EXPECT_FALSE(a.CompatibleWith(f));
}

}  // namespace
}  // namespace dpjl

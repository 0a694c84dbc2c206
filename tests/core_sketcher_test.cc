#include <cmath>

#include <gtest/gtest.h>

#include "src/core/sketcher.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

SketcherConfig Base() {
  SketcherConfig c;
  c.k_override = 32;
  c.s_override = 8;
  c.epsilon = 1.0;
  c.projection_seed = kTestSeed;
  return c;
}

TEST(SketcherTest, CreateRejectsBadDimension) {
  EXPECT_FALSE(PrivateSketcher::Create(0, Base()).ok());
  EXPECT_FALSE(PrivateSketcher::Create(-5, Base()).ok());
}

TEST(SketcherTest, CreateRejectsBadPrivacyBudget) {
  SketcherConfig c = Base();
  c.epsilon = 0.0;
  EXPECT_FALSE(PrivateSketcher::Create(64, c).ok());
  c = Base();
  c.delta = 1.0;
  EXPECT_FALSE(PrivateSketcher::Create(64, c).ok());
}

TEST(SketcherTest, NonPrivateIgnoresBudget) {
  SketcherConfig c = Base();
  c.noise_selection = SketcherConfig::NoiseSelection::kNone;
  c.epsilon = 0.0;  // would be invalid for a private sketcher
  const PrivateSketcher s = MakeSketcherOrDie(64, c);
  EXPECT_FALSE(s.mechanism().private_release());
  EXPECT_DOUBLE_EQ(s.MetadataTemplate().noise_center, 0.0);
}

TEST(SketcherTest, InputPlacementRequiresFjlt) {
  SketcherConfig c = Base();
  c.placement = NoisePlacement::kInput;
  c.transform = TransformKind::kSjltBlock;
  EXPECT_FALSE(PrivateSketcher::Create(64, c).ok());
  c.transform = TransformKind::kFjlt;
  c.delta = 1e-6;
  EXPECT_TRUE(PrivateSketcher::Create(64, c).ok());
}

TEST(SketcherTest, GaussianSelectionNeedsPositiveDelta) {
  SketcherConfig c = Base();
  c.noise_selection = SketcherConfig::NoiseSelection::kGaussian;
  c.delta = 0.0;
  EXPECT_FALSE(PrivateSketcher::Create(64, c).ok());
}

TEST(SketcherTest, AutoSelectionIsLaplaceForPureBudget) {
  const PrivateSketcher s = MakeSketcherOrDie(64, Base());
  EXPECT_EQ(s.mechanism().distribution().kind(),
            NoiseDistribution::Kind::kLaplace);
  EXPECT_TRUE(s.mechanism().params().pure());
  // Theorem 3 calibration: b = sqrt(s)/eps.
  EXPECT_DOUBLE_EQ(s.mechanism().distribution().scale(), std::sqrt(8.0));
}

TEST(SketcherTest, AutoSelectionFollowsNote5) {
  // s = 8, Delta_1^2 = 8: crossover at 1.25 e^{-8} under the exact-m2 rule.
  SketcherConfig c = Base();
  c.delta = 1.25 * std::exp(-8.0) * 0.5;
  EXPECT_EQ(MakeSketcherOrDie(64, c).mechanism().distribution().kind(),
            NoiseDistribution::Kind::kLaplace);
  c.delta = 1.25 * std::exp(-8.0) * 2.0;
  EXPECT_EQ(MakeSketcherOrDie(64, c).mechanism().distribution().kind(),
            NoiseDistribution::Kind::kGaussian);
}

TEST(SketcherTest, SketchIsDeterministicInSeeds) {
  const PrivateSketcher s = MakeSketcherOrDie(64, Base());
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(64, 1.0, &rng);
  const PrivateSketch a = s.Sketch(x, 7);
  const PrivateSketch b = s.Sketch(x, 7);
  EXPECT_EQ(a.values(), b.values());
  const PrivateSketch c = s.Sketch(x, 8);
  EXPECT_NE(a.values(), c.values());
}

TEST(SketcherTest, SketchSparseMatchesDense) {
  const PrivateSketcher s = MakeSketcherOrDie(64, Base());
  Rng rng(kTestSeed);
  const SparseVector x = RandomSparseVector(64, 5, 1.0, &rng);
  const PrivateSketch from_sparse = s.SketchSparse(x, 11);
  const PrivateSketch from_dense = s.Sketch(x.ToDense(), 11);
  ASSERT_EQ(from_sparse.values().size(), from_dense.values().size());
  for (size_t i = 0; i < from_sparse.values().size(); ++i) {
    EXPECT_NEAR(from_sparse.values()[i], from_dense.values()[i], 1e-9);
  }
}

TEST(SketcherTest, MetadataReflectsConfiguration) {
  const PrivateSketcher s = MakeSketcherOrDie(64, Base());
  const SketchMetadata meta = s.MetadataTemplate();
  EXPECT_EQ(meta.transform, TransformKind::kSjltBlock);
  EXPECT_EQ(meta.input_dim, 64);
  EXPECT_EQ(meta.output_dim, 32);
  EXPECT_EQ(meta.sparsity, 8);
  EXPECT_EQ(meta.projection_seed, kTestSeed);
  EXPECT_EQ(meta.placement, NoisePlacement::kOutput);
  EXPECT_DOUBLE_EQ(meta.epsilon, 1.0);
  EXPECT_DOUBLE_EQ(meta.delta, 0.0);
  // center = k * m2 = 32 * 2 b^2 with b = sqrt(8).
  EXPECT_DOUBLE_EQ(meta.noise_center, 32.0 * 2.0 * 8.0);
}

TEST(SketcherTest, InputPlacementCenterUsesInputDim) {
  SketcherConfig c = Base();
  c.transform = TransformKind::kFjlt;
  c.placement = NoisePlacement::kInput;
  c.delta = 1e-6;
  const PrivateSketcher s = MakeSketcherOrDie(64, c);
  const double m2 = s.mechanism().NoiseSecondMoment();
  EXPECT_DOUBLE_EQ(s.MetadataTemplate().noise_center, 64.0 * m2);
}

TEST(SketcherTest, BlockSjltRoundsKUpToMultipleOfS) {
  SketcherConfig c = Base();
  c.k_override = 30;  // not a multiple of 8
  const PrivateSketcher s = MakeSketcherOrDie(64, c);
  EXPECT_EQ(s.output_dim(), 32);
}

TEST(SketcherTest, DeriveDimensionsFromAlphaBeta) {
  SketcherConfig c;
  c.alpha = 0.2;
  c.beta = 0.05;
  c.epsilon = 1.0;
  const PrivateSketcher s = MakeSketcherOrDie(128, c);
  EXPECT_GT(s.output_dim(), 0);
  EXPECT_GT(s.MetadataTemplate().sparsity, 0);
  EXPECT_LE(s.MetadataTemplate().sparsity, s.output_dim());
}

TEST(SketcherTest, DescribeMentionsTransformAndNoise) {
  const PrivateSketcher s = MakeSketcherOrDie(64, Base());
  const std::string desc = s.Describe();
  EXPECT_NE(desc.find("sjlt-block"), std::string::npos);
  EXPECT_NE(desc.find("Laplace"), std::string::npos);
  EXPECT_NE(desc.find("output-noise"), std::string::npos);

  // The paper's Note 7 placement names itself, not the input placement it
  // is distributed like.
  SketcherConfig post = Base();
  post.transform = TransformKind::kFjlt;
  post.placement = NoisePlacement::kPostHadamard;
  post.delta = 1e-6;
  post.noise_selection = SketcherConfig::NoiseSelection::kGaussian;
  const std::string post_desc = MakeSketcherOrDie(64, post).Describe();
  EXPECT_NE(post_desc.find("fjlt"), std::string::npos);
  EXPECT_NE(post_desc.find("Gaussian"), std::string::npos);
  EXPECT_NE(post_desc.find("[post-hadamard-noise]"), std::string::npos);
}

TEST(SketcherTest, MoveSemantics) {
  PrivateSketcher s = MakeSketcherOrDie(64, Base());
  const PrivateSketcher moved = std::move(s);
  EXPECT_EQ(moved.input_dim(), 64);
}

}  // namespace
}  // namespace dpjl

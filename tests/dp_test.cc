#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/dp/accountant.h"
#include "src/dp/discrete_mechanism.h"
#include "src/dp/mechanism.h"
#include "src/dp/noise_distribution.h"
#include "src/dp/privacy_params.h"
#include "src/dp/sensitivity.h"
#include "src/dp/snapping.h"
#include "src/random/rng.h"
#include "src/stats/welford.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::NearRel;

TEST(PrivacyParamsTest, ValidatesDomain) {
  EXPECT_TRUE(PrivacyParams::Create(1.0, 0.0).ok());
  EXPECT_TRUE(PrivacyParams::Create(0.1, 1e-6).ok());
  EXPECT_FALSE(PrivacyParams::Create(0.0, 0.0).ok());
  EXPECT_FALSE(PrivacyParams::Create(-1.0, 0.0).ok());
  EXPECT_FALSE(PrivacyParams::Create(1.0, 1.0).ok());
  EXPECT_FALSE(PrivacyParams::Create(1.0, -0.1).ok());
}

TEST(PrivacyParamsTest, RefusesANonFiniteEpsilon) {
  // An infinite epsilon would make every noise scale Delta/epsilon zero.
  for (const double epsilon : {INFINITY, NAN}) {
    const auto params = PrivacyParams::Create(epsilon, 0.0);
    ASSERT_FALSE(params.ok()) << epsilon;
    EXPECT_EQ(params.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(PrivacyParams::Create(INFINITY, 1e-6).ok());
  EXPECT_FALSE(PrivacyParams::Pure(INFINITY).ok());
}

TEST(PrivacyParamsTest, PureFlagAndToString) {
  const PrivacyParams pure = PrivacyParams::Pure(0.5).value();
  EXPECT_TRUE(pure.pure());
  EXPECT_EQ(pure.ToString(), "(eps=0.5, pure)");
  const PrivacyParams approx = PrivacyParams::Create(0.5, 1e-6).value();
  EXPECT_FALSE(approx.pure());
  EXPECT_EQ(approx.ToString(), "(eps=0.5, delta=1e-06)");
}

TEST(NoiseDistributionTest, LaplaceMomentsExact) {
  const double b = 2.5;
  const NoiseDistribution d = NoiseDistribution::Laplace(b);
  EXPECT_DOUBLE_EQ(d.SecondMoment(), 2.0 * b * b);
  EXPECT_DOUBLE_EQ(d.FourthMoment(), 24.0 * b * b * b * b);
}

TEST(NoiseDistributionTest, GaussianMomentsExact) {
  const double sigma = 1.3;
  const NoiseDistribution d = NoiseDistribution::Gaussian(sigma);
  EXPECT_DOUBLE_EQ(d.SecondMoment(), sigma * sigma);
  EXPECT_DOUBLE_EQ(d.FourthMoment(), 3.0 * std::pow(sigma, 4));
}

TEST(NoiseDistributionTest, NoneIsZero) {
  const NoiseDistribution d = NoiseDistribution::None();
  EXPECT_DOUBLE_EQ(d.SecondMoment(), 0.0);
  EXPECT_DOUBLE_EQ(d.FourthMoment(), 0.0);
  Rng rng(kTestSeed);
  EXPECT_DOUBLE_EQ(d.Sample(&rng), 0.0);
}

TEST(NoiseDistributionTest, DiscreteLaplaceMomentsMatchSeries) {
  // Closed-form moments against direct pmf summation.
  for (double t : {0.7, 2.0, 6.0}) {
    const NoiseDistribution d = NoiseDistribution::DiscreteLaplace(t);
    const double p = std::exp(-1.0 / t);
    const double norm = (1.0 - p) / (1.0 + p);
    double m2 = 0.0;
    double m4 = 0.0;
    for (int64_t x = 1; x <= 2000; ++x) {
      const double mass = 2.0 * norm * std::pow(p, x);
      m2 += mass * x * x;
      m4 += mass * std::pow(static_cast<double>(x), 4);
    }
    EXPECT_TRUE(NearRel(d.SecondMoment(), m2, 1e-9)) << "t=" << t;
    EXPECT_TRUE(NearRel(d.FourthMoment(), m4, 1e-9)) << "t=" << t;
  }
}

TEST(NoiseDistributionTest, DiscreteGaussianSecondMomentBelowSigmaSq) {
  for (double sigma : {0.8, 1.5, 4.0}) {
    const NoiseDistribution d = NoiseDistribution::DiscreteGaussian(sigma);
    // CKS: Var <= sigma^2; at large sigma the two agree to double precision.
    EXPECT_LE(d.SecondMoment(), sigma * sigma * (1.0 + 1e-12))
        << "sigma=" << sigma;
    EXPECT_GT(d.SecondMoment(), 0.0);
  }
}

TEST(NoiseDistributionTest, SampleMatchesMoments) {
  Rng rng(kTestSeed);
  for (const NoiseDistribution& d :
       {NoiseDistribution::Laplace(1.5), NoiseDistribution::Gaussian(2.0),
        NoiseDistribution::DiscreteLaplace(3.0),
        NoiseDistribution::DiscreteGaussian(2.0)}) {
    OnlineMoments m;
    for (int i = 0; i < 120000; ++i) m.Add(d.Sample(&rng));
    EXPECT_TRUE(NearRel(m.SampleVariance(), d.SecondMoment(), 0.05)) << d.Name();
    EXPECT_TRUE(NearRel(m.FourthCentralMoment(), d.FourthMoment(), 0.12))
        << d.Name();
  }
}

TEST(NoiseDistributionTest, NamesAreDescriptive) {
  EXPECT_EQ(NoiseDistribution::None().Name(), "None");
  EXPECT_EQ(NoiseDistribution::Laplace(1.5).Name(), "Laplace(b=1.5)");
  EXPECT_EQ(NoiseDistribution::Gaussian(2.0).Name(), "Gaussian(sigma=2)");
}

TEST(SensitivityTest, ExactColumnScan) {
  DenseMatrix m(2, 3);
  // columns: (3,4), (1,1), (0,-7)
  m.At(0, 0) = 3;
  m.At(1, 0) = 4;
  m.At(0, 1) = 1;
  m.At(1, 1) = 1;
  m.At(0, 2) = 0;
  m.At(1, 2) = -7;
  const Sensitivities s = ComputeSensitivities(m);
  EXPECT_DOUBLE_EQ(s.l1, 7.0);  // max(7, 2, 7) = 7
  EXPECT_DOUBLE_EQ(s.l2, 7.0);  // max(5, sqrt2, 7) = 7
}

TEST(SensitivityTest, NoiseMagnitudeProxy) {
  const Sensitivities s{3.0, 1.0};
  // delta = 0: Laplace branch only.
  EXPECT_DOUBLE_EQ(NoiseMagnitudeProxy(s, 0.0), 3.0);
  // Large-ish delta: Gaussian branch smaller.
  const double delta = 1e-2;
  EXPECT_DOUBLE_EQ(NoiseMagnitudeProxy(s, delta),
                   std::min(3.0, std::sqrt(std::log(1.0 / delta))));
}

TEST(MechanismTest, LaplaceScaleFormula) {
  EXPECT_DOUBLE_EQ(LaplaceScale(2.0, 0.5), 4.0);
}

TEST(MechanismTest, GaussianSigmaFormula) {
  const double sigma = GaussianSigma(1.0, 1.0, 1e-5);
  EXPECT_DOUBLE_EQ(sigma, std::sqrt(2.0 * std::log(1.25e5)));
}

TEST(MechanismTest, LaplaceMechanismIsPure) {
  const Mechanism m = Mechanism::Laplace(std::sqrt(8.0), 0.5).value();
  EXPECT_TRUE(m.private_release());
  EXPECT_TRUE(m.params().pure());
  EXPECT_EQ(m.distribution().kind(), NoiseDistribution::Kind::kLaplace);
  EXPECT_DOUBLE_EQ(m.distribution().scale(), std::sqrt(8.0) / 0.5);
}

TEST(MechanismTest, GaussianRejectsPureRequest) {
  const auto r = Mechanism::Gaussian(1.0, PrivacyParams{1.0, 0.0});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(MechanismTest, ChoosePrefersLaplaceForPureBudget) {
  const Sensitivities sens{3.0, 1.0};
  const Mechanism m =
      Mechanism::Choose(sens, PrivacyParams{1.0, 0.0}).value();
  EXPECT_EQ(m.distribution().kind(), NoiseDistribution::Kind::kLaplace);
}

TEST(MechanismTest, ChooseFollowsNote5Crossover) {
  // SJLT-like sensitivities: Delta_1 = sqrt(s), Delta_2 = 1. The exact m2
  // rule picks Laplace iff 2 s / eps^2 <= 2 ln(1.25/delta) / eps^2, i.e.
  // delta <= 1.25 e^{-s}.
  const int64_t s = 8;
  const Sensitivities sens{std::sqrt(static_cast<double>(s)), 1.0};
  const double crossover = 1.25 * std::exp(-static_cast<double>(s));
  const Mechanism small_delta =
      Mechanism::Choose(sens, PrivacyParams{1.0, crossover * 0.5}).value();
  EXPECT_EQ(small_delta.distribution().kind(),
            NoiseDistribution::Kind::kLaplace);
  const Mechanism large_delta =
      Mechanism::Choose(sens, PrivacyParams{1.0, crossover * 2.0}).value();
  EXPECT_EQ(large_delta.distribution().kind(),
            NoiseDistribution::Kind::kGaussian);
}

TEST(MechanismTest, LaplacePreferredMatchesPaperRule) {
  const Sensitivities sens{2.0, 1.0};  // Delta_1^2/Delta_2^2 = 4
  EXPECT_TRUE(LaplacePreferred(sens, 0.0));
  EXPECT_TRUE(LaplacePreferred(sens, std::exp(-4.0) * 0.9));
  EXPECT_FALSE(LaplacePreferred(sens, std::exp(-4.0) * 1.1));
}

TEST(MechanismTest, AddNoiseChangesValuesDeterministically) {
  const Mechanism m = Mechanism::Laplace(1.0, 1.0).value();
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = a;
  Rng r1(kTestSeed);
  Rng r2(kTestSeed);
  m.AddNoise(&a, &r1);
  m.AddNoise(&b, &r2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a[0], 1.0);
}

TEST(MechanismTest, NonPrivateAddsNothing) {
  const Mechanism m = Mechanism::NonPrivate();
  EXPECT_FALSE(m.private_release());
  std::vector<double> a = {1.0, 2.0};
  Rng rng(kTestSeed);
  m.AddNoise(&a, &rng);
  EXPECT_EQ(a, (std::vector<double>{1.0, 2.0}));
}

TEST(SnappingTest, CreateValidatesArguments) {
  EXPECT_TRUE(SnappingMechanism::Create(1.0, 1.0, 100.0).ok());
  EXPECT_FALSE(SnappingMechanism::Create(0.0, 1.0, 100.0).ok());
  EXPECT_FALSE(SnappingMechanism::Create(1.0, 0.0, 100.0).ok());
  EXPECT_FALSE(SnappingMechanism::Create(1.0, 1.0, 0.0).ok());
}

TEST(SnappingTest, LambdaIsSmallestPowerOfTwoAboveScale) {
  const SnappingMechanism m = SnappingMechanism::Create(3.0, 1.0, 100.0).value();
  EXPECT_DOUBLE_EQ(m.scale(), 3.0);
  EXPECT_DOUBLE_EQ(m.lambda(), 4.0);
  const SnappingMechanism m2 = SnappingMechanism::Create(1.0, 2.0, 100.0).value();
  EXPECT_DOUBLE_EQ(m2.scale(), 0.5);
  EXPECT_DOUBLE_EQ(m2.lambda(), 0.5);
}

TEST(SnappingTest, OutputsAreOnLambdaLatticeAndClamped) {
  const SnappingMechanism m = SnappingMechanism::Create(2.0, 1.0, 16.0).value();
  Rng rng(kTestSeed);
  for (int i = 0; i < 5000; ++i) {
    const double out = m.Apply(3.7, &rng);
    EXPECT_LE(std::fabs(out), 16.0);
    const double cells = out / m.lambda();
    EXPECT_NEAR(cells, std::nearbyint(cells), 1e-9);
  }
}

TEST(SnappingTest, ErrorWithinLaplacePlusLambda) {
  // Mean absolute error should be close to the Laplace MAE (= b) plus at
  // most Lambda/2 of rounding.
  const double b = 2.0;
  const SnappingMechanism m = SnappingMechanism::Create(b, 1.0, 1e6).value();
  Rng rng(kTestSeed);
  OnlineMoments err;
  for (int i = 0; i < 50000; ++i) err.Add(std::fabs(m.Apply(10.0, &rng) - 10.0));
  EXPECT_LT(err.mean(), b + m.lambda() / 2.0 + 0.1);
  EXPECT_GT(err.mean(), b * 0.8);
}

TEST(DiscreteMechanismTest, CreateValidates) {
  EXPECT_TRUE(DiscreteLaplaceMechanism::Create(1.0, 1.0, 8, 0.01).ok());
  EXPECT_FALSE(DiscreteLaplaceMechanism::Create(-1.0, 1.0, 8, 0.01).ok());
  EXPECT_FALSE(DiscreteLaplaceMechanism::Create(1.0, 0.0, 8, 0.01).ok());
  EXPECT_FALSE(DiscreteLaplaceMechanism::Create(1.0, 1.0, 0, 0.01).ok());
  EXPECT_FALSE(DiscreteLaplaceMechanism::Create(1.0, 1.0, 8, 0.0).ok());
}

TEST(DiscreteMechanismTest, OutputsOnLattice) {
  const double resolution = 0.125;
  const DiscreteLaplaceMechanism m =
      DiscreteLaplaceMechanism::Create(1.0, 1.0, 4, resolution).value();
  Rng rng(kTestSeed);
  std::vector<double> v = {0.3, -1.7, 2.9, 0.0};
  m.Apply(&v, &rng);
  for (double x : v) {
    const double cells = x / resolution;
    EXPECT_NEAR(cells, std::nearbyint(cells), 1e-9);
  }
}

TEST(DiscreteMechanismTest, GridScaleAccountsForQuantization) {
  const double delta1 = 2.0;
  const double eps = 0.5;
  const int64_t k = 16;
  const double resolution = 0.01;
  const DiscreteLaplaceMechanism m =
      DiscreteLaplaceMechanism::Create(delta1, eps, k, resolution).value();
  EXPECT_DOUBLE_EQ(m.grid_scale(), (delta1 / resolution + k) / eps);
}

TEST(DiscreteMechanismTest, NoiseApproachesContinuousLaplaceAsResolutionShrinks) {
  const double delta1 = 1.0;
  const double eps = 1.0;
  const int64_t k = 32;
  // Continuous Laplace noise second moment: 2 (delta1/eps)^2 = 2.
  const double resolution = DiscreteLaplaceMechanism::DefaultResolution(delta1, k);
  const DiscreteLaplaceMechanism m =
      DiscreteLaplaceMechanism::Create(delta1, eps, k, resolution).value();
  EXPECT_TRUE(NearRel(m.NoiseSecondMoment(), 2.0, 0.05));
}

TEST(DiscreteMechanismTest, FloorQuantizationOffsetIsMinusHalfCell) {
  // released - value = resolution * noise - offset with offset ~ U[0, res)
  // for generic values, so the mean error is -resolution/2. Resolvable at
  // a coarse grid where the offset is large relative to the MC error.
  const double resolution = 0.5;
  const DiscreteLaplaceMechanism m =
      DiscreteLaplaceMechanism::Create(1.0, 1.0, 4, resolution).value();
  Rng rng(kTestSeed);
  OnlineMoments err;
  for (int i = 0; i < 100000; ++i) {
    const double value = rng.NextDouble() * 10.0 - 5.0;
    std::vector<double> v = {value};
    m.Apply(&v, &rng);
    err.Add(v[0] - value);
  }
  EXPECT_NEAR(err.mean(), -resolution / 2.0, 5.0 * err.StandardError());
}

TEST(DiscreteGaussianMechanismTest, CreateValidates) {
  EXPECT_TRUE(DiscreteGaussianMechanism::Create(1.0, 1.0, 1e-6, 8, 0.01).ok());
  EXPECT_FALSE(DiscreteGaussianMechanism::Create(0.0, 1.0, 1e-6, 8, 0.01).ok());
  EXPECT_FALSE(DiscreteGaussianMechanism::Create(1.0, 0.0, 1e-6, 8, 0.01).ok());
  EXPECT_FALSE(DiscreteGaussianMechanism::Create(1.0, 1.0, 0.0, 8, 0.01).ok());
  EXPECT_FALSE(DiscreteGaussianMechanism::Create(1.0, 1.0, 1e-6, 0, 0.01).ok());
  EXPECT_FALSE(DiscreteGaussianMechanism::Create(1.0, 1.0, 1e-6, 8, 0.0).ok());
}

TEST(DiscreteGaussianMechanismTest, OutputsOnLattice) {
  const double resolution = 0.25;
  const DiscreteGaussianMechanism m =
      DiscreteGaussianMechanism::Create(1.0, 1.0, 1e-6, 4, resolution).value();
  Rng rng(kTestSeed);
  std::vector<double> v = {0.3, -1.7, 2.9, 0.0};
  m.Apply(&v, &rng);
  for (double x : v) {
    const double cells = x / resolution;
    EXPECT_NEAR(cells, std::nearbyint(cells), 1e-9);
  }
}

TEST(DiscreteGaussianMechanismTest, SigmaAccountsForQuantization) {
  const double delta2 = 2.0;
  const double eps = 0.5;
  const double delta = 1e-6;
  const int64_t k = 16;
  const double resolution = 0.01;
  const DiscreteGaussianMechanism m =
      DiscreteGaussianMechanism::Create(delta2, eps, delta, k, resolution)
          .value();
  const double integer_sens = delta2 / resolution + std::sqrt(16.0);
  EXPECT_DOUBLE_EQ(m.grid_sigma(),
                   integer_sens / eps * std::sqrt(2.0 * std::log(1.25 / delta)));
}

TEST(DiscreteGaussianMechanismTest, ApproachesContinuousGaussianNoise) {
  const double delta2 = 1.0;
  const double eps = 1.0;
  const double delta = 1e-6;
  const int64_t k = 64;
  const double resolution =
      DiscreteGaussianMechanism::DefaultResolution(delta2, k);
  const DiscreteGaussianMechanism m =
      DiscreteGaussianMechanism::Create(delta2, eps, delta, k, resolution)
          .value();
  const double continuous_sigma = GaussianSigma(delta2, eps, delta);
  EXPECT_TRUE(NearRel(m.NoiseSecondMoment(),
                      continuous_sigma * continuous_sigma, 0.05));
  EXPECT_TRUE(NearRel(m.NoiseFourthMoment(),
                      3.0 * std::pow(continuous_sigma, 4), 0.10));
}

TEST(AccountantTest, BasicCompositionSums) {
  PrivacyAccountant acc;
  acc.Record(PrivacyParams{0.5, 1e-6});
  acc.Record(PrivacyParams{0.25, 0.0});
  const PrivacyParams total = acc.BasicComposition();
  EXPECT_DOUBLE_EQ(total.epsilon, 0.75);
  EXPECT_DOUBLE_EQ(total.delta, 1e-6);
  EXPECT_EQ(acc.num_releases(), 2);
}

TEST(AccountantTest, AdvancedBeatsBasicForManyReleases) {
  const PrivacyParams per{0.1, 1e-8};
  const int64_t t = 100;
  const PrivacyParams adv =
      AdvancedCompositionBound(per, t, /*delta_slack=*/1e-6).value();
  EXPECT_LT(adv.epsilon, 0.1 * t);  // sqrt(T) growth beats linear
  EXPECT_NEAR(adv.delta, t * 1e-8 + 1e-6, 1e-12);
}

TEST(AccountantTest, AdvancedRequiresHomogeneousSpends) {
  PrivacyAccountant acc;
  acc.Record(PrivacyParams{0.5, 0.0});
  acc.Record(PrivacyParams{0.6, 0.0});
  EXPECT_FALSE(acc.AdvancedComposition(1e-6).ok());
}

TEST(AccountantTest, AdvancedValidatesArguments) {
  EXPECT_FALSE(AdvancedCompositionBound(PrivacyParams{0.1, 0.0}, 0, 1e-6).ok());
  EXPECT_FALSE(AdvancedCompositionBound(PrivacyParams{0.1, 0.0}, 5, 0.0).ok());
  EXPECT_FALSE(AdvancedCompositionBound(PrivacyParams{0.1, 0.5}, 5, 0.9).ok());
}

TEST(AccountantTest, EmptyAccountantAdvancedFails) {
  PrivacyAccountant acc;
  EXPECT_FALSE(acc.AdvancedComposition(1e-6).ok());
  EXPECT_DOUBLE_EQ(acc.BasicComposition().epsilon, 0.0);
}

}  // namespace
}  // namespace dpjl

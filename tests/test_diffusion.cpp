#include "core/diffusion.h"

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "nn/rng.h"

namespace dcdiff::core {
namespace {

using nn::Tensor;

Tensor randn(std::vector<int> shape, Rng& rng) {
  std::vector<float> d(nn::shape_numel(shape));
  for (float& v : d) v = rng.normal();
  return Tensor::from_data(std::move(shape), std::move(d));
}

TEST(Schedule, AlphaBarMonotonicallyDecreasing) {
  const auto s = DiffusionSchedule::linear(100);
  EXPECT_EQ(s.T, 100);
  for (int t = 1; t < s.T; ++t) {
    EXPECT_LT(s.alpha_bar[static_cast<size_t>(t)],
              s.alpha_bar[static_cast<size_t>(t - 1)]);
  }
  EXPECT_GT(s.alpha_bar[0], 0.99f);
  EXPECT_LT(s.alpha_bar[static_cast<size_t>(s.T - 1)], 0.5f);
}

TEST(Schedule, SqrtConsistency) {
  const auto s = DiffusionSchedule::linear(50);
  for (int t = 0; t < s.T; ++t) {
    const float ab = s.alpha_bar[static_cast<size_t>(t)];
    EXPECT_NEAR(s.sqrt_ab[static_cast<size_t>(t)] *
                    s.sqrt_ab[static_cast<size_t>(t)],
                ab, 1e-5);
    EXPECT_NEAR(s.sqrt_one_m_ab[static_cast<size_t>(t)] *
                    s.sqrt_one_m_ab[static_cast<size_t>(t)],
                1.0f - ab, 1e-5);
  }
}

TEST(Schedule, SingleStepScheduleIsFinite) {
  // T == 1 used to divide by T-1 when interpolating betas -> NaN everywhere.
  const auto s = DiffusionSchedule::linear(1);
  ASSERT_EQ(s.T, 1);
  EXPECT_TRUE(std::isfinite(s.beta[0]));
  EXPECT_TRUE(std::isfinite(s.alpha_bar[0]));
  EXPECT_TRUE(std::isfinite(s.sqrt_ab[0]));
  EXPECT_TRUE(std::isfinite(s.sqrt_one_m_ab[0]));
  EXPECT_NEAR(s.beta[0], 1e-4f, 1e-6f);
}

TEST(PredictZ0, InvertsForwardNoising) {
  // z_t = sqrt_ab z0 + sqrt(1-ab) eps  =>  predict_z0(z_t, eps) == z0.
  const auto s = DiffusionSchedule::linear(100);
  Rng rng(1);
  const Tensor z0 = randn({2, 4, 4, 4}, rng);
  const Tensor eps = randn({2, 4, 4, 4}, rng);
  const std::vector<int> t = {10, 70};
  std::vector<float> sab(2), s1m(2);
  for (int i = 0; i < 2; ++i) {
    sab[static_cast<size_t>(i)] = s.sqrt_ab[static_cast<size_t>(t[i])];
    s1m[static_cast<size_t>(i)] = s.sqrt_one_m_ab[static_cast<size_t>(t[i])];
  }
  const Tensor z_t =
      nn::add(nn::mul_per_sample(z0, Tensor::from_data({2}, sab)),
              nn::mul_per_sample(eps, Tensor::from_data({2}, s1m)));
  const Tensor rec = predict_z0(z_t, eps, s, t);
  for (size_t i = 0; i < z0.numel(); ++i) {
    EXPECT_NEAR(rec.value()[i], z0.value()[i], 1e-3);
  }
}

TEST(PredictZ0, EpsFromZ0IsTheInverseRelation) {
  // z_t built from (z0, eps) must satisfy eps_from_z0(z_t, z0) == eps.
  const auto s = DiffusionSchedule::linear(80);
  Rng rng(21);
  const Tensor z0 = randn({2, 4, 4, 4}, rng);
  const Tensor eps = randn({2, 4, 4, 4}, rng);
  const std::vector<int> t = {5, 60};
  std::vector<float> sab(2), s1m(2);
  for (int i = 0; i < 2; ++i) {
    sab[static_cast<size_t>(i)] = s.sqrt_ab[static_cast<size_t>(t[i])];
    s1m[static_cast<size_t>(i)] = s.sqrt_one_m_ab[static_cast<size_t>(t[i])];
  }
  const Tensor z_t =
      nn::add(nn::mul_per_sample(z0, Tensor::from_data({2}, sab)),
              nn::mul_per_sample(eps, Tensor::from_data({2}, s1m)));
  const Tensor rec = eps_from_z0(z_t, z0, s, t);
  for (size_t i = 0; i < eps.numel(); ++i) {
    EXPECT_NEAR(rec.value()[i], eps.value()[i], 1e-2);
  }
}

class UNetFixture : public ::testing::Test {
 protected:
  UNetFixture()
      : cfg_{4, 16, 32},
        unet_(cfg_, 7),
        control_(cfg_, 7),
        sched_(DiffusionSchedule::linear(50)) {}

  UNetConfig cfg_;
  UNet unet_;
  ControlModule control_;
  DiffusionSchedule sched_;
};

TEST_F(UNetFixture, ControlFeatureShapes) {
  Rng rng(2);
  const Tensor tilde = randn({2, 3, 32, 32}, rng);
  const auto f = control_.forward(tilde);
  EXPECT_EQ(f.c1.shape(), (std::vector<int>{2, 16, 8, 8}));
  EXPECT_EQ(f.c2.shape(), (std::vector<int>{2, 32, 4, 4}));
}

TEST_F(UNetFixture, ForwardPreservesLatentShape) {
  Rng rng(3);
  const Tensor z = randn({2, 4, 8, 8}, rng);
  const Tensor tilde = randn({2, 3, 32, 32}, rng);
  const auto ctrl = control_.forward(tilde);
  const Tensor eps = unet_.forward(z, {3, 40}, ctrl);
  EXPECT_EQ(eps.shape(), z.shape());
}

TEST_F(UNetFixture, TimestepCountMismatchThrows) {
  Rng rng(4);
  const Tensor z = randn({2, 4, 8, 8}, rng);
  const auto ctrl = control_.forward(randn({2, 3, 32, 32}, rng));
  EXPECT_THROW(unet_.forward(z, {3}, ctrl), std::invalid_argument);
}

TEST_F(UNetFixture, ModulationChangesOutput) {
  Rng rng(5);
  const Tensor z = randn({1, 4, 8, 8}, rng);
  const auto ctrl = control_.forward(randn({1, 3, 32, 32}, rng));
  const Tensor plain = unet_.forward(z, {10}, ctrl);
  const Tensor s = Tensor::from_data({1}, {1.5f});
  const Tensor b = Tensor::from_data({1}, {0.5f});
  const Tensor modulated = unet_.forward(z, {10}, ctrl, s, b);
  double diff = 0.0;
  for (size_t i = 0; i < plain.numel(); ++i) {
    diff += std::abs(plain.value()[i] - modulated.value()[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST_F(UNetFixture, UnitModulationMatchesPlainSampling) {
  Rng rng(6);
  const Tensor z = randn({1, 4, 8, 8}, rng);
  const auto ctrl = control_.forward(randn({1, 3, 32, 32}, rng));
  const Tensor ones = Tensor::from_data({1}, {1.0f});
  const Tensor plain = unet_.forward(z, {10}, ctrl);
  const Tensor unit = unet_.forward(z, {10}, ctrl, ones, ones);
  for (size_t i = 0; i < plain.numel(); ++i) {
    EXPECT_NEAR(plain.value()[i], unit.value()[i], 1e-5);
  }
}

TEST_F(UNetFixture, DdimSampleShapeAndDeterminism) {
  Rng rng(7);
  const Tensor noise = randn({1, 4, 8, 8}, rng);
  const auto ctrl = control_.forward(randn({1, 3, 32, 32}, rng));
  const Tensor a = ddim_sample_checkpointed(unet_, sched_, ctrl, noise, 5,
                                            Tensor(), Tensor(),
                                            Prediction::kEps, {});
  const Tensor b = ddim_sample_checkpointed(unet_, sched_, ctrl, noise, 5,
                                            Tensor(), Tensor(),
                                            Prediction::kEps, {});
  ASSERT_EQ(a.shape(), noise.shape());
  for (size_t i = 0; i < a.numel(); ++i) {
    ASSERT_FLOAT_EQ(a.value()[i], b.value()[i]);
  }
  // Output is clamped to the tanh-bounded latent range.
  for (float v : a.value()) {
    EXPECT_GE(v, -1.2f);
    EXPECT_LE(v, 1.2f);
  }
}

TEST_F(UNetFixture, DdimX0ModeShapeAndBounds) {
  Rng rng(17);
  const Tensor noise = randn({1, 4, 8, 8}, rng);
  const auto ctrl = control_.forward(randn({1, 3, 32, 32}, rng));
  const Tensor z = ddim_sample_checkpointed(unet_, sched_, ctrl, noise, 6,
                                            Tensor(), Tensor(),
                                            Prediction::kX0, {});
  ASSERT_EQ(z.shape(), noise.shape());
  for (float v : z.value()) {
    EXPECT_GE(v, -1.2f);
    EXPECT_LE(v, 1.2f);
  }
  // x0 and eps parameterizations of the same (untrained) net differ.
  const Tensor z_eps = ddim_sample_checkpointed(
      unet_, sched_, ctrl, noise, 6, Tensor(), Tensor(), Prediction::kEps, {});
  double diff = 0.0;
  for (size_t i = 0; i < z.numel(); ++i) {
    diff += std::abs(z.value()[i] - z_eps.value()[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST_F(UNetFixture, DdimRejectsBadStepCount) {
  Rng rng(8);
  const Tensor noise = randn({1, 4, 8, 8}, rng);
  const auto ctrl = control_.forward(randn({1, 3, 32, 32}, rng));
  EXPECT_THROW(ddim_sample_checkpointed(unet_, sched_, ctrl, noise, 0,
                                        Tensor(), Tensor(), Prediction::kEps,
                                        {}),
               std::invalid_argument);
  EXPECT_THROW(ddim_sample_checkpointed(unet_, sched_, ctrl, noise,
                                        sched_.T + 1, Tensor(), Tensor(),
                                        Prediction::kEps, {}),
               std::invalid_argument);
}

TEST_F(UNetFixture, GradientsReachAllParameters) {
  Rng rng(9);
  const Tensor z = randn({1, 4, 8, 8}, rng);
  const Tensor tilde = randn({1, 3, 32, 32}, rng);
  const auto ctrl = control_.forward(tilde);
  const Tensor eps_target = randn({1, 4, 8, 8}, rng);
  nn::Tensor loss = nn::mse_loss(unet_.forward(z, {12}, ctrl), eps_target);
  loss.backward();
  int with_grad = 0, total = 0;
  for (auto params : {unet_.params(), control_.params()}) {
    for (auto& p : params) {
      ++total;
      double g = 0;
      for (float v : p.grad()) g += std::abs(v);
      if (g > 0) ++with_grad;
    }
  }
  EXPECT_EQ(with_grad, total);
}

}  // namespace
}  // namespace dcdiff::core

#include "nn/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "grad_check.h"
#include "nn/rng.h"

namespace dcdiff::nn {
namespace {

using dcdiff::testing_util::check_gradient;

Tensor random_tensor(std::vector<int> shape, Rng& rng, float scale = 1.0f) {
  std::vector<float> data(shape_numel(shape));
  for (float& v : data) v = rng.normal(0.0f, scale);
  return Tensor::from_data(std::move(shape), std::move(data));
}

// ---------- forward semantics ----------

TEST(OpsForward, AddSubMulValues) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {4, 5, 6});
  EXPECT_FLOAT_EQ(add(a, b).value()[2], 9.0f);
  EXPECT_FLOAT_EQ(sub(a, b).value()[0], -3.0f);
  EXPECT_FLOAT_EQ(mul(a, b).value()[1], 10.0f);
}

TEST(OpsForward, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros({3});
  Tensor b = Tensor::zeros({4});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(mse_loss(a, b), std::invalid_argument);
}

TEST(OpsForward, ActivationsAtKnownPoints) {
  Tensor x = Tensor::from_data({3}, {-1.0f, 0.0f, 1.0f});
  EXPECT_FLOAT_EQ(relu(x).value()[0], 0.0f);
  EXPECT_FLOAT_EQ(relu(x).value()[2], 1.0f);
  EXPECT_FLOAT_EQ(sigmoid(x).value()[1], 0.5f);
  EXPECT_NEAR(silu(x).value()[2], 1.0f / (1.0f + std::exp(-1.0f)), 1e-5);
  EXPECT_NEAR(tanh_op(x).value()[0], std::tanh(-1.0f), 1e-6);
}

TEST(OpsForward, MeanAndSum) {
  Tensor x = Tensor::from_data({4}, {1, 2, 3, 6});
  EXPECT_FLOAT_EQ(sum(x).item(), 12.0f);
  EXPECT_FLOAT_EQ(mean(x).item(), 3.0f);
}

TEST(OpsForward, LinearMatchesManualMatmul) {
  Tensor x = Tensor::from_data({1, 2}, {1, 2});
  Tensor w = Tensor::from_data({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  const Tensor y = linear(x, w, b);
  EXPECT_FLOAT_EQ(y.value()[0], 11.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 22.0f);
  EXPECT_FLOAT_EQ(y.value()[2], 33.0f);
}

TEST(OpsForward, Conv2dIdentityKernel) {
  Rng rng(1);
  Tensor x = random_tensor({1, 1, 4, 4}, rng);
  Tensor w = Tensor::zeros({1, 1, 3, 3});
  w.value()[4] = 1.0f;  // center tap
  const Tensor y = conv2d(x, w, Tensor(), 1, 1);
  ASSERT_EQ(y.shape(), x.shape());
  for (size_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(y.value()[i], x.value()[i], 1e-6);
  }
}

TEST(OpsForward, Conv2dStrideHalvesSpatialDims) {
  Tensor x = Tensor::zeros({2, 3, 8, 8});
  Rng rng(2);
  Tensor w = random_tensor({5, 3, 3, 3}, rng);
  const Tensor y = conv2d(x, w, Tensor(), 2, 1);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 5, 4, 4}));
}

TEST(OpsForward, UpsampleAndPoolShapes) {
  Tensor x = Tensor::zeros({1, 2, 4, 4});
  EXPECT_EQ(upsample_nearest2x(x).shape(), (std::vector<int>{1, 2, 8, 8}));
  EXPECT_EQ(avg_pool2d(x, 2).shape(), (std::vector<int>{1, 2, 2, 2}));
  EXPECT_EQ(global_avg_pool(x).shape(), (std::vector<int>{1, 2}));
}

TEST(OpsForward, ConcatAndSliceChannels) {
  Tensor a = Tensor::full({1, 2, 2, 2}, 1.0f);
  Tensor b = Tensor::full({1, 3, 2, 2}, 2.0f);
  const Tensor c = concat_channels(a, b);
  EXPECT_EQ(c.dim(1), 5);
  EXPECT_FLOAT_EQ(c.value()[0], 1.0f);
  EXPECT_FLOAT_EQ(c.value()[static_cast<size_t>(2 * 4)], 2.0f);
  const Tensor s = slice_channels(c, 2, 5);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_FLOAT_EQ(s.value()[0], 2.0f);
}

TEST(OpsForward, GroupNormNormalizesPerGroup) {
  Rng rng(3);
  Tensor x = random_tensor({2, 4, 3, 3}, rng, 5.0f);
  Tensor gamma = Tensor::full({4}, 1.0f);
  Tensor beta = Tensor::zeros({4});
  const Tensor y = group_norm(x, gamma, beta, 2);
  // Each (sample, group) slice has ~zero mean, ~unit variance.
  const size_t gsize = 2 * 9;
  for (int n = 0; n < 2; ++n) {
    for (int g = 0; g < 2; ++g) {
      double mean = 0, var = 0;
      const size_t base = (static_cast<size_t>(n) * 4 + g * 2) * 9;
      for (size_t i = 0; i < gsize; ++i) mean += y.value()[base + i];
      mean /= gsize;
      for (size_t i = 0; i < gsize; ++i) {
        const double d = y.value()[base + i] - mean;
        var += d * d;
      }
      var /= gsize;
      EXPECT_NEAR(mean, 0.0, 1e-4);
      EXPECT_NEAR(var, 1.0, 1e-2);
    }
  }
}

TEST(OpsForward, CrossEntropyUniformLogits) {
  Tensor x = Tensor::zeros({2, 4});
  const Tensor loss = cross_entropy(x, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5);
}

TEST(OpsForward, TimestepEmbeddingShapesAndRange) {
  const Tensor e = timestep_embedding({0, 10, 100}, 16);
  EXPECT_EQ(e.shape(), (std::vector<int>{3, 16}));
  for (float v : e.value()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
  // t=0: cos part = 1, sin part = 0.
  EXPECT_FLOAT_EQ(e.value()[0], 1.0f);
  EXPECT_FLOAT_EQ(e.value()[8], 0.0f);
}

// ---------- gradient checks ----------

TEST(OpsGrad, Elementwise) {
  Rng rng(10);
  Tensor x = random_tensor({6}, rng);
  Tensor y = random_tensor({6}, rng);
  check_gradient(x, [&] { return sum(mul(add(x, y), sub(x, y))); });
}

TEST(OpsGrad, Activations) {
  Rng rng(11);
  Tensor x = random_tensor({8}, rng);
  check_gradient(x, [&] { return sum(silu(x)); });
  check_gradient(x, [&] { return sum(sigmoid(x)); });
  check_gradient(x, [&] { return sum(tanh_op(x)); });
  // relu grad checked away from the kink
  for (float& v : x.value()) v = (v > 0 ? v + 0.1f : v - 0.1f);
  check_gradient(x, [&] { return sum(relu(x)); });
}

TEST(OpsGrad, Losses) {
  Rng rng(12);
  Tensor x = random_tensor({5}, rng);
  Tensor t = random_tensor({5}, rng);
  check_gradient(x, [&] { return mse_loss(x, t); });
  check_gradient(x, [&] { return l1_loss(x, t); }, 1e-3f, 5e-2f);
}

TEST(OpsGrad, CrossEntropy) {
  Rng rng(13);
  Tensor x = random_tensor({3, 4}, rng);
  const std::vector<int> targets = {1, 0, 3};
  check_gradient(x, [&] { return cross_entropy(x, targets); });
}

TEST(OpsGrad, Linear) {
  Rng rng(14);
  Tensor x = random_tensor({2, 3}, rng);
  Tensor w = random_tensor({4, 3}, rng);
  Tensor b = random_tensor({4}, rng);
  Tensor t = random_tensor({2, 4}, rng);
  check_gradient(x, [&] { return mse_loss(linear(x, w, b), t); });
  check_gradient(w, [&] { return mse_loss(linear(x, w, b), t); });
  check_gradient(b, [&] { return mse_loss(linear(x, w, b), t); });
}

class ConvGradCase
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConvGradCase, InputWeightBias) {
  const auto [stride, pad] = GetParam();
  Rng rng(15 + stride * 10 + pad);
  Tensor x = random_tensor({2, 2, 6, 6}, rng);
  Tensor w = random_tensor({3, 2, 3, 3}, rng, 0.5f);
  Tensor b = random_tensor({3}, rng);
  auto loss = [&] { return sum(conv2d(x, w, b, stride, pad)); };
  check_gradient(x, loss);
  check_gradient(w, loss);
  check_gradient(b, loss);
}

INSTANTIATE_TEST_SUITE_P(StridePad, ConvGradCase,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(2, 1),
                                           std::make_tuple(1, 0)));

TEST(OpsGrad, PoolingAndUpsample) {
  Rng rng(16);
  Tensor x = random_tensor({1, 2, 4, 4}, rng);
  check_gradient(x, [&] { return sum(avg_pool2d(x, 2)); });
  check_gradient(x, [&] { return sum(global_avg_pool(x)); });
  Tensor t = random_tensor({1, 2, 8, 8}, rng);
  check_gradient(x, [&] { return mse_loss(upsample_nearest2x(x), t); });
}

TEST(OpsGrad, GroupNorm) {
  Rng rng(17);
  Tensor x = random_tensor({2, 4, 3, 3}, rng, 2.0f);
  Tensor gamma = random_tensor({4}, rng);
  Tensor beta = random_tensor({4}, rng);
  Tensor t = random_tensor({2, 4, 3, 3}, rng);
  auto loss = [&] { return mse_loss(group_norm(x, gamma, beta, 2), t); };
  check_gradient(x, loss, 1e-2f, 5e-2f);
  check_gradient(gamma, loss);
  check_gradient(beta, loss);
}

TEST(OpsGrad, ConcatSliceReshape) {
  Rng rng(18);
  Tensor a = random_tensor({1, 2, 2, 2}, rng);
  Tensor b = random_tensor({1, 3, 2, 2}, rng);
  check_gradient(a, [&] {
    return sum(slice_channels(concat_channels(a, b), 1, 4));
  });
  check_gradient(b, [&] {
    return sum(slice_channels(concat_channels(a, b), 1, 4));
  });
  check_gradient(a, [&] { return sum(reshape(a, {2, 4})); });
}

TEST(OpsGrad, BroadcastHelpers) {
  Rng rng(19);
  Tensor x = random_tensor({2, 3, 2, 2}, rng);
  Tensor s = random_tensor({2}, rng);
  Tensor sc = random_tensor({2, 3}, rng);
  check_gradient(s, [&] { return sum(mul(mul_per_sample(x, s),
                                         mul_per_sample(x, s))); });
  check_gradient(x, [&] { return sum(mul(mul_per_sample(x, s), x)); });
  check_gradient(sc, [&] {
    return sum(mul(add_sample_channel_bias(x, sc),
                   add_sample_channel_bias(x, sc)));
  });
}

}  // namespace
}  // namespace dcdiff::nn

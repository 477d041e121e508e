// Additional NN-substrate behaviours: optimizer dynamics, embedding
// determinism, serialization across heterogeneous modules, and training
// convergence of small convolutional models (the regime every DCDiff
// component trains in).
#include <gtest/gtest.h>

#include "nn/modules.h"
#include "nn/optim.h"
#include "nn/ops.h"
#include "nn/rng.h"
#include "nn/serialize.h"

namespace dcdiff::nn {
namespace {

TEST(AdamDynamics, BiasCorrectionMakesFirstStepLrSized) {
  // After one step with gradient g, Adam moves by ~lr * sign(g).
  Tensor x = Tensor::zeros({1}, true);
  Adam opt({x}, 0.1f);
  Tensor loss = scale(sum(x), 5.0f);  // dL/dx = 5
  loss.backward();
  opt.step();
  EXPECT_NEAR(x.value()[0], -0.1f, 1e-5);
}

TEST(AdamDynamics, LrSetterTakesEffect) {
  Tensor x = Tensor::zeros({1}, true);
  Adam opt({x}, 0.1f);
  opt.set_lr(0.01f);
  sum(x).backward();
  opt.step();
  EXPECT_NEAR(x.value()[0], -0.01f, 1e-6);
  EXPECT_EQ(opt.step_count(), 1);
}

TEST(TimestepEmbedding, DeterministicAndDistinct) {
  const Tensor a = timestep_embedding({7}, 32);
  const Tensor b = timestep_embedding({7}, 32);
  const Tensor c = timestep_embedding({8}, 32);
  double same = 0, diff = 0;
  for (size_t i = 0; i < a.numel(); ++i) {
    same += std::abs(a.value()[i] - b.value()[i]);
    diff += std::abs(a.value()[i] - c.value()[i]);
  }
  EXPECT_EQ(same, 0.0);
  EXPECT_GT(diff, 1e-3);
}

TEST(Serialize, HeterogeneousModuleList) {
  Rng rng(4);
  Conv2d conv(2, 4, 3, 1, 1, rng);
  GroupNorm gn(4, 2);
  Linear fc(4, 2, rng);
  // 4 -> 6 channels with a timestep input: norms, convs, the 1x1
  // shortcut and the embedding projection.
  ResBlock res(4, 6, 3, rng);
  std::vector<Tensor> params;
  conv.collect(params);
  gn.collect(params);
  fc.collect(params);
  res.collect(params);
  const std::string path = ::testing::TempDir() + "/hetero.bin";
  save_params(params, path);

  Rng rng2(99);
  Conv2d conv2(2, 4, 3, 1, 1, rng2);
  GroupNorm gn2(4, 2);
  Linear fc2(4, 2, rng2);
  ResBlock res2(4, 6, 3, rng2);
  std::vector<Tensor> params2;
  conv2.collect(params2);
  gn2.collect(params2);
  fc2.collect(params2);
  res2.collect(params2);
  ASSERT_TRUE(load_params(params2, path));
  for (size_t i = 0; i < params.size(); ++i) {
    for (size_t j = 0; j < params[i].numel(); ++j) {
      ASSERT_FLOAT_EQ(params2[i].value()[j], params[i].value()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(SmallConvTraining, LearnsBoxBlurKernel) {
  // A single 3x3 conv can learn a fixed linear filter exactly.
  Rng rng(5);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  std::vector<Tensor> params;
  conv.collect(params);
  Adam opt(params, 0.05f);
  for (int step = 0; step < 250; ++step) {
    // Random input; target = box blur of input.
    std::vector<float> xdata(36);
    for (float& v : xdata) v = rng.normal();
    Tensor x = Tensor::from_data({1, 1, 6, 6}, xdata);
    Tensor wbox = Tensor::full({1, 1, 3, 3}, 1.0f / 9.0f);
    Tensor target = conv2d(x, wbox, Tensor(), 1, 1);
    Tensor loss = mse_loss(conv(x), target);
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  for (float w : conv.w.value()) EXPECT_NEAR(w, 1.0f / 9.0f, 0.02f);
  EXPECT_NEAR(conv.b.value()[0], 0.0f, 0.02f);
}

TEST(SmallConvTraining, GroupNormNetworkFitsConstantTarget) {
  Rng rng(6);
  Conv2d c1(1, 4, 3, 1, 1, rng);
  GroupNorm gn(4, 2);
  Conv2d c2(4, 1, 3, 1, 1, rng);
  std::vector<Tensor> params;
  c1.collect(params);
  gn.collect(params);
  c2.collect(params);
  Adam opt(params, 0.02f);
  const Tensor x = Tensor::full({1, 1, 4, 4}, 0.5f);
  const Tensor target = Tensor::full({1, 1, 4, 4}, -0.3f);
  float final_loss = 1.0f;
  for (int step = 0; step < 300; ++step) {
    Tensor loss = mse_loss(c2(relu(gn(c1(x)))), target);
    final_loss = loss.item();
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(final_loss, 1e-3f);
}

TEST(ResBlockTraining, FitsResidualMapping) {
  Rng rng(7);
  ResBlock block(2, 2, 0, rng);
  std::vector<Tensor> params;
  block.collect(params);
  Adam opt(params, 0.01f);
  std::vector<float> xd(2 * 16);
  for (float& v : xd) v = rng.normal(0.0f, 0.5f);
  const Tensor x = Tensor::from_data({1, 2, 4, 4}, xd);
  const Tensor target = scale(x, -1.0f);  // must invert the input
  float final_loss = 1.0f;
  for (int step = 0; step < 400; ++step) {
    Tensor loss = mse_loss(block(x), target);
    final_loss = loss.item();
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(final_loss, 0.02f);
}

}  // namespace
}  // namespace dcdiff::nn

#include "nn/modules.h"

#include <cmath>

#include "nn/plan/builder.h"

namespace dcdiff::nn {

void init_uniform_fan_in(Tensor& t, int fan_in, Rng& rng) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(fan_in));
  for (float& v : t.value()) v = rng.uniform(-bound, bound);
}

Conv2d::Conv2d(int cin, int cout, int k, int stride, int pad, Rng& rng)
    : stride(stride), pad(pad) {
  w = Tensor::zeros({cout, cin, k, k}, /*requires_grad=*/true);
  b = Tensor::zeros({cout}, /*requires_grad=*/true);
  const int fan_in = cin * k * k;
  init_uniform_fan_in(w, fan_in, rng);
  init_uniform_fan_in(b, fan_in, rng);
}

void Conv2d::collect(std::vector<Tensor>& out) const {
  out.push_back(w);
  out.push_back(b);
}

plan::TensorId Conv2d::capture(plan::GraphBuilder& g,
                               plan::TensorId x) const {
  return g.conv2d(x, w, b, stride, pad);
}

Linear::Linear(int in, int out_dim, Rng& rng) {
  w = Tensor::zeros({out_dim, in}, /*requires_grad=*/true);
  b = Tensor::zeros({out_dim}, /*requires_grad=*/true);
  init_uniform_fan_in(w, in, rng);
  init_uniform_fan_in(b, in, rng);
}

void Linear::collect(std::vector<Tensor>& out) const {
  out.push_back(w);
  out.push_back(b);
}

plan::TensorId Linear::capture(plan::GraphBuilder& g,
                               plan::TensorId x) const {
  return g.linear(x, w, b);
}

GroupNorm::GroupNorm(int channels, int groups) : groups(groups) {
  gamma = Tensor::full({channels}, 1.0f, /*requires_grad=*/true);
  beta = Tensor::zeros({channels}, /*requires_grad=*/true);
}

void GroupNorm::collect(std::vector<Tensor>& out) const {
  out.push_back(gamma);
  out.push_back(beta);
}

plan::TensorId GroupNorm::capture(plan::GraphBuilder& g,
                                  plan::TensorId x) const {
  return g.group_norm(x, gamma, beta, groups);
}

int norm_groups_for(int channels) {
  for (int g = 8; g > 1; --g) {
    if (channels % g == 0) return g;
  }
  return 1;
}

ResBlock::ResBlock(int cin, int cout, int temb_dim, Rng& rng)
    : norm1(cin, norm_groups_for(cin)),
      norm2(cout, norm_groups_for(cout)),
      conv1(cin, cout, 3, 1, 1, rng),
      conv2(cout, cout, 3, 1, 1, rng),
      has_shortcut(cin != cout),
      has_temb(temb_dim > 0) {
  if (has_shortcut) shortcut = Conv2d(cin, cout, 1, 1, 0, rng);
  if (has_temb) temb_proj = Linear(temb_dim, cout, rng);
}

Tensor ResBlock::operator()(const Tensor& x, const Tensor& temb) const {
  Tensor h = conv1(silu(norm1(x)));
  if (has_temb) {
    if (!temb.defined()) {
      throw std::invalid_argument("ResBlock: temb expected but missing");
    }
    h = add_sample_channel_bias(h, temb_proj(silu(temb)));
  }
  h = conv2(silu(norm2(h)));
  const Tensor skip = has_shortcut ? shortcut(x) : x;
  return add(h, skip);
}

plan::TensorId ResBlock::capture(plan::GraphBuilder& g, plan::TensorId x,
                                 plan::TensorId temb_bias) const {
  plan::TensorId h = conv1.capture(g, g.silu(norm1.capture(g, x)));
  if (has_temb) {
    if (temb_bias < 0) {
      throw std::invalid_argument("ResBlock capture: temb expected");
    }
    h = g.add_sample_channel_bias(h, temb_bias);
  }
  h = conv2.capture(g, g.silu(norm2.capture(g, h)));
  const plan::TensorId skip = has_shortcut ? shortcut.capture(g, x) : x;
  return g.add(h, skip);
}

void ResBlock::collect(std::vector<Tensor>& out) const {
  norm1.collect(out);
  conv1.collect(out);
  norm2.collect(out);
  conv2.collect(out);
  if (has_shortcut) shortcut.collect(out);
  if (has_temb) temb_proj.collect(out);
}

}  // namespace dcdiff::nn

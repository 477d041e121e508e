// Small layer structs composing the networks used in this repository.
//
// Layers own their parameter tensors (created with requires_grad) and expose
// `collect` to gather them for the optimizer / serializer. Parameter order in
// `collect` defines the serialization order, so it must stay stable.
#pragma once

#include <vector>

#include "nn/ops.h"
#include "nn/plan/fwd.h"
#include "nn/rng.h"
#include "nn/tensor.h"

namespace dcdiff::nn {

// Fills a parameter tensor with U(-1/sqrt(fan_in), 1/sqrt(fan_in)).
void init_uniform_fan_in(Tensor& t, int fan_in, Rng& rng);

struct Conv2d {
  Tensor w, b;
  int stride = 1;
  int pad = 1;

  Conv2d() = default;
  Conv2d(int cin, int cout, int k, int stride, int pad, Rng& rng);

  Tensor operator()(const Tensor& x) const {
    return conv2d(x, w, b, stride, pad);
  }
  // Records this layer's forward into a plan graph (see nn/plan/builder.h).
  plan::TensorId capture(plan::GraphBuilder& g, plan::TensorId x) const;
  void collect(std::vector<Tensor>& out) const;
};

struct Linear {
  Tensor w, b;

  Linear() = default;
  Linear(int in, int out, Rng& rng);

  Tensor operator()(const Tensor& x) const { return linear(x, w, b); }
  plan::TensorId capture(plan::GraphBuilder& g, plan::TensorId x) const;
  void collect(std::vector<Tensor>& out) const;
};

// The group count every GroupNorm here uses: the largest divisor of
// `channels` that is <= 8, which keeps groups well-formed for the small
// channel counts of these networks.
int norm_groups_for(int channels);

struct GroupNorm {
  Tensor gamma, beta;
  int groups = 1;

  GroupNorm() = default;
  GroupNorm(int channels, int groups);

  Tensor operator()(const Tensor& x) const {
    return group_norm(x, gamma, beta, groups);
  }
  plan::TensorId capture(plan::GraphBuilder& g, plan::TensorId x) const;
  void collect(std::vector<Tensor>& out) const;
};

// Pre-activation residual block: GN -> SiLU -> conv -> GN -> SiLU -> conv,
// with an optional 1x1 shortcut when channel counts differ and an optional
// timestep-embedding injection (added per channel after the first conv).
struct ResBlock {
  GroupNorm norm1, norm2;
  Conv2d conv1, conv2;
  Conv2d shortcut;  // 1x1; undefined weights when cin == cout
  Linear temb_proj;  // undefined when temb_dim == 0
  bool has_shortcut = false;
  bool has_temb = false;

  ResBlock() = default;
  ResBlock(int cin, int cout, int temb_dim, Rng& rng);

  // temb: (N, temb_dim) or undefined.
  Tensor operator()(const Tensor& x, const Tensor& temb) const;
  Tensor operator()(const Tensor& x) const { return (*this)(x, Tensor()); }
  // `temb_bias` is temb_proj(silu(temb)) as a graph tensor, one row per
  // sample of x, or plan::kNoTensor when the block has no timestep
  // injection.
  plan::TensorId capture(plan::GraphBuilder& g, plan::TensorId x,
                         plan::TensorId temb_bias) const;
  void collect(std::vector<Tensor>& out) const;
};

}  // namespace dcdiff::nn

// Differentiable operations over nn::Tensor.
//
// All ops validate shapes eagerly, compute forward immediately, and register
// reverse-mode closures (only when gradients are enabled and some input
// requires them). Convolution and linear layers parallelize across the global
// thread pool deterministically. Every op the compiled plan also runs takes
// its shape rule and forward kernel from nn/kernels.h.
//
// Layout conventions: 2-D tensors are (N, K); convolutional tensors are
// NCHW; weights are (Cout, Cin, kH, kW).
#pragma once

#include <vector>

#include "nn/tensor.h"

namespace dcdiff::nn {

// ----- Elementwise -----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);

Tensor relu(const Tensor& a);
Tensor silu(const Tensor& a);      // x * sigmoid(x)
Tensor sigmoid(const Tensor& a);
Tensor tanh_op(const Tensor& a);

// ----- Broadcast helpers -----
// x: any shape with leading batch dim N; s: (N). Multiplies sample n by s[n].
Tensor mul_per_sample(const Tensor& x, const Tensor& s);
// x: (N,C,H,W); b: (N,C). Adds b[n][c] to every spatial element.
Tensor add_sample_channel_bias(const Tensor& x, const Tensor& b);

// ----- Reductions / losses -----
Tensor sum(const Tensor& a);
Tensor mean(const Tensor& a);
Tensor mse_loss(const Tensor& a, const Tensor& b);
Tensor l1_loss(const Tensor& a, const Tensor& b);
// Mean over samples of -log softmax(x)[target]; x: (N,K).
Tensor cross_entropy(const Tensor& x, const std::vector<int>& targets);

// ----- Shape -----
Tensor reshape(const Tensor& a, std::vector<int> new_shape);
// Concatenate along channel dim (dim 1); NCHW or (N,C).
Tensor concat_channels(const Tensor& a, const Tensor& b);
// Channels [c0, c1) of an NCHW or (N,C) tensor.
Tensor slice_channels(const Tensor& a, int c0, int c1);

// ----- Linear algebra -----
// x: (N,K), w: (M,K), b: (M) or undefined. Returns (N,M) = x w^T + b.
// Each output row's bits are independent of N (nn::gemm_rows).
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);

// ----- Convolutional -----
// x: (N,C,H,W), w: (F,C,kH,kW), b: (F) or undefined.
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int pad);
Tensor avg_pool2d(const Tensor& x, int k);       // stride == k
Tensor global_avg_pool(const Tensor& x);         // (N,C,H,W) -> (N,C)
Tensor upsample_nearest2x(const Tensor& x);

// ----- Normalization -----
// x: (N,C,H,W) or (N,C); gamma, beta: (C). C must be divisible by groups.
// Keeps no normalized copy of x: the backward recomputes the statistics.
Tensor group_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  int groups, float eps = 1e-5f);

// ----- Utilities -----
// Sinusoidal timestep embedding (constant, no grad): (N, dim).
Tensor timestep_embedding(const std::vector<int>& t, int dim,
                          float max_period = 10000.0f);

}  // namespace dcdiff::nn

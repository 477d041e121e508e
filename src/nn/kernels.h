// The forward of every inference op: its shape rule and its raw-pointer
// kernel, each written once.
//
// The eager ops (nn/ops.cpp) and, for the op kinds a plan records
// (nn/plan/ir.h), the plan builder (nn/plan/builder.cpp) call the same shape
// rule, so a graph captures exactly the shapes the tape accepts. The eager
// ops and the plan executor (nn/plan/plan.cpp) call the same kernel, so a
// planned forward is bit-identical to the eager one by construction: there
// is no second loop to drift. Kernels take `out` as a separate buffer; the
// elementwise ones and k_group_norm also accept `out == input` (each
// element is read before its slot is written), which is how the plan's
// fused conv + group norm and the DDIM clamp run in place.
//
// The plan's fused activations are not a second pass: the producing kernel
// (k_group_norm, k_linear, PackedA::conv2d_forward) takes an Act and applies
// it inside the parallel task that wrote each range, with the standalone
// activation kernel's per-element expression (act_inplace).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace dcdiff::nn {

// Minimum elements per dispatched range for memory-bound elementwise loops
// (about 1 ns each): below this the pool's hand-off costs more than the loop
// itself.
inline constexpr int64_t kEwGrain = 1 << 13;
// Minimum elements per dispatched range for a loop that runs an activation
// (k_silu, k_sigmoid, k_tanh, their backward passes, and an activation fused
// into its producer). One expf or tanhf costs about 5 ns, so 1024 elements
// are about 5 us of work; at kEwGrain the UNet's 4K and 8K-float tensors
// would never split.
inline constexpr int64_t kActGrain = 1 << 10;

// An activation a producing kernel applies to its own output (the plan's
// fused epilogue): kSiLU is k_silu's per-element expression, kTanh
// k_tanh's.
enum class Act : uint8_t { kNone, kSiLU, kTanh };

// Minimum elements per dispatched range for an elementwise loop that also
// applies `act`.
inline int64_t ew_grain(Act act) {
  return act == Act::kNone ? kEwGrain : kActGrain;
}

// The per-element expressions of the activations, each written once. The
// standalone kernels, act_inplace (a producer's fused epilogue) and the
// eager backward passes (nn/ops.cpp) all apply these, so a fused activation
// has the standalone kernel's bits.
inline float silu_of(float a) { return a / (1.0f + std::exp(-a)); }
inline float sigmoid_of(float a) { return 1.0f / (1.0f + std::exp(-a)); }
inline float tanh_of(float a) { return std::tanh(a); }

// Applies `act` in place to p[0, n) on the calling thread: the body a
// producing kernel runs on each range its parallel task has just written.
void act_inplace(Act act, float* p, size_t n);

// ----- Shape rules -----
// Each validates its op's operands (std::invalid_argument naming the op) and
// returns the output shape. Optional biases are undefined Tensors.
using Shape = std::vector<int>;
// x (N,C,H,W), w (F,C,kH,kW), b (F) -> (N,F,Ho,Wo).
Shape conv2d_shape(const Shape& x, const Tensor& w, const Tensor& b,
                   int stride, int pad);
// x (N,K), w (M,K), b (M) -> (N,M).
Shape linear_shape(const Shape& x, const Tensor& w, const Tensor& b);
// x (N,C,...), gamma/beta (C), C divisible by groups -> x.
Shape group_norm_shape(const Shape& x, const Tensor& gamma,
                       const Tensor& beta, int groups);
// x (N,...), s (N) -> x.
Shape mul_per_sample_shape(const Shape& x, const Shape& s);
// x (N,C,H,W), b (N,C) -> x.
Shape sample_channel_bias_shape(const Shape& x, const Shape& b);
// Equal ranks >= 2, equal dims except dim 1 -> channels summed.
Shape concat_channels_shape(const Shape& a, const Shape& b);
// 0 <= c0 < c1 <= C -> channels [c0, c1).
Shape slice_channels_shape(const Shape& a, int c0, int c1);
// Same element count -> `to`.
Shape reshape_shape(const Shape& a, const Shape& to);
// (N,C,H,W), H and W divisible by k -> (N,C,H/k,W/k).
Shape avg_pool2d_shape(const Shape& x, int k);
// (N,C,H,W) -> (N,C).
Shape global_avg_pool_shape(const Shape& x);
// (N,C,H,W) -> (N,C,2H,2W).
Shape upsample2x_shape(const Shape& x);
// (N,...), k >= 1 -> (N*k,...).
Shape repeat_batch_shape(const Shape& x, int k);
// (N*e,...), N >= 1, e >= 1 -> (N,...).
Shape ensemble_mean_shape(const Shape& x, int n, int e);

// ----- Kernels -----
// The activations run on the pool in ranges of at least kActGrain elements.
void k_silu(const float* a, float* out, size_t n);
void k_relu(const float* a, float* out, size_t n);
void k_tanh(const float* a, float* out, size_t n);
void k_sigmoid(const float* a, float* out, size_t n);
void k_clamp(const float* a, float* out, size_t n, float lo, float hi);
void k_add(const float* a, const float* b, float* out, size_t n);
void k_sub(const float* a, const float* b, float* out, size_t n);
void k_scale(const float* a, float* out, size_t n, float s);

// x (N,...) * s (N) broadcast over each sample of `per` elements.
void k_mul_per_sample(const float* x, const float* s, float* out, size_t n,
                      size_t per);
// x (N,C,H,W) + b (N,C) broadcast over each (sample, channel) plane.
void k_add_sample_channel_bias(const float* x, const float* b, float* out,
                               size_t n, size_t inner);

void k_concat_channels(const float* a, const float* b, float* out, int n,
                       size_t sa, size_t sb);
void k_slice_channels(const float* a, float* out, int n, size_t stride_in,
                      size_t stride_out, size_t skip);

// out (n,m) = act(x (n,k) * w^T + bias), through nn::gemm_rows, so each
// row's bits are independent of n; bias and `act` run row by row in one
// parallel pass.
void k_linear(const float* x, int n, int k, int m, const float* w,
              const float* bias, float* out, Act act = Act::kNone);

// Normalization statistics of one (sample, group) slice of `n` elements,
// xhat = (x - mu) * istd: the mean and the squared deviations are summed in
// double precision over four interleaved accumulator chains (a single
// serial chain is FP-add-latency bound, ~3x slower). The group-norm forward
// and backward both take their statistics from here.
struct GroupStats {
  float mu;
  float istd;
};
GroupStats group_stats(const float* p, size_t n, float eps);

// act(group norm of x (n,c,inner...)), parallel over (sample, group)
// pairs: each pair's task normalizes its slice, applies the affine, then
// `act`.
void k_group_norm(const float* x, const float* gamma, const float* beta,
                  float* out, int n, int c, int groups, size_t inner,
                  float eps, Act act = Act::kNone);

void k_avg_pool2d(const float* x, float* out, int n, int c, int h, int w,
                  int k);
void k_global_avg_pool(const float* x, float* out, int n, int c, int h,
                       int w);
void k_upsample2x(const float* x, float* out, int n, int c, int h, int w);
// [s0 x k, s1 x k, ...] for n samples of `per` elements.
void k_repeat_batch(const float* x, float* out, int n, int k, size_t per);
// Row i of out = mean over rows [i*e, (i+1)*e) of x: members added left to
// right, then scaled by 1/e.
void k_ensemble_mean(const float* x, float* out, int n, int e, size_t per);

}  // namespace dcdiff::nn

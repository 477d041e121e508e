// Raw-pointer kernels for the plan executor.
//
// Every loop here is a verbatim clone of the corresponding eager forward in
// nn/ops.cpp (same expressions, same accumulation order, same parallel
// grain), so a planned forward is bit-identical to the eager tape path.
// Fused epilogues (PostOp, group-norm) run as separate in-place passes over
// the already-written output — the values the eager path would have stored
// and re-read — never as re-associated arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/plan/ir.h"

namespace dcdiff::nn {
class PackedA;
}

namespace dcdiff::nn::plan {

// In-place activation epilogue (fusion); PostOp::kNone is a no-op.
void apply_post_inplace(PostOp post, float* p, size_t n);

void k_silu(const float* a, float* out, size_t n);
void k_relu(const float* a, float* out, size_t n);
void k_tanh(const float* a, float* out, size_t n);
void k_sigmoid(const float* a, float* out, size_t n);
void k_clamp(const float* a, float* out, size_t n, float lo, float hi);
void k_add(const float* a, const float* b, float* out, size_t n);
void k_sub(const float* a, const float* b, float* out, size_t n);
void k_scale(const float* a, float* out, size_t n, float s);
void k_copy(const float* a, float* out, size_t n);

// x (N,C,H,W) * s (N) broadcast over each sample.
void k_mul_per_sample(const float* x, const float* s, float* out, size_t n,
                      size_t per);
// x (N,C,H,W) + b (N,C) broadcast over each (sample, channel) plane.
void k_add_sample_channel_bias(const float* x, const float* b, float* out,
                               size_t n, size_t inner);

void k_concat_channels(const float* a, const float* b, float* out, int n,
                       size_t sa, size_t sb);
void k_slice_channels(const float* a, float* out, int n, size_t stride_in,
                      size_t stride_out, size_t skip);

// out (n,f,ho,wo) = conv2d(x (n,c,h,w), packed W) + bias: the same
// PackedA::conv2d_forward dispatch the eager conv2d makes.
void k_conv2d(const float* x, int n, int c, int h, int w, const PackedA& pw,
              int kh, int kw, int stride, int pad, int ho, int wo,
              const float* bias, float* out);

// out (n,m) = x (n,k) * w^T + bias (same gemm_rows call as the eager
// linear, so each row's bits are independent of n).
void k_linear(const float* x, int n, int k, int m, const float* w,
              const float* bias, float* out);

// Group norm, parallel over (sample, group) pairs; `x` and `out` may be the
// same buffer (fused conv epilogue) — every element is read before its slot
// is written, and each pair touches only its own slice.
void k_group_norm(const float* x, const float* gamma, const float* beta,
                  float* out, int n, int c, int groups, size_t inner,
                  float eps);

void k_avg_pool2d(const float* x, float* out, int n, int c, int h, int w,
                  int k);
void k_global_avg_pool(const float* x, float* out, int n, int c, int h,
                       int w);
void k_upsample2x(const float* x, float* out, int n, int c, int h, int w);
void k_repeat_batch(const float* x, float* out, int n, int k, size_t per);
// Row i of out = mean over rows [i*e, (i+1)*e) of x, accumulated in the
// same left-to-right order as the eager ensemble fold.
void k_ensemble_mean(const float* x, float* out, int n, int e, size_t per);

}  // namespace dcdiff::nn::plan

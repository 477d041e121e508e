#include "nn/plan/kernels.h"

#include <algorithm>
#include <cmath>

#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/threadpool.h"

namespace dcdiff::nn::plan {
namespace {

// Same elementwise dispatch grain as nn/ops.cpp.
constexpr int64_t kEwGrain = 1 << 13;

}  // namespace

void apply_post_inplace(PostOp post, float* p, size_t n) {
  switch (post) {
    case PostOp::kNone:
      return;
    case PostOp::kSiLU:
      for (size_t i = 0; i < n; ++i) p[i] = p[i] / (1.0f + std::exp(-p[i]));
      return;
    case PostOp::kRelu:
      for (size_t i = 0; i < n; ++i) p[i] = p[i] > 0 ? p[i] : 0.0f;
      return;
    case PostOp::kTanh:
      for (size_t i = 0; i < n; ++i) p[i] = std::tanh(p[i]);
      return;
    case PostOp::kSigmoid:
      for (size_t i = 0; i < n; ++i) p[i] = 1.0f / (1.0f + std::exp(-p[i]));
      return;
  }
}

void k_silu(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] / (1.0f + std::exp(-a[i]));
}

void k_relu(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] > 0 ? a[i] : 0.0f;
}

void k_tanh(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = std::tanh(a[i]);
}

void k_sigmoid(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-a[i]));
}

void k_clamp(const float* a, float* out, size_t n, float lo, float hi) {
  for (size_t i = 0; i < n; ++i) out[i] = std::clamp(a[i], lo, hi);
}

void k_add(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void k_sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void k_scale(const float* a, float* out, size_t n, float s) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void k_copy(const float* a, float* out, size_t n) { std::copy_n(a, n, out); }

void k_mul_per_sample(const float* x, const float* s, float* out, size_t n,
                      size_t per) {
  // Per-sample outer loop: one scale broadcast per row instead of an integer
  // division per element.
  for (size_t i = 0; i < n; i += per) {
    const float si = s[i / per];
    for (size_t j = 0; j < per; ++j) out[i + j] = x[i + j] * si;
  }
}

void k_add_sample_channel_bias(const float* x, const float* b, float* out,
                               size_t n, size_t inner) {
  for (size_t i = 0; i < n; i += inner) {
    const float bi = b[i / inner];
    for (size_t j = 0; j < inner; ++j) out[i + j] = x[i + j] + bi;
  }
}

void k_concat_channels(const float* a, const float* b, float* out, int n,
                       size_t sa, size_t sb) {
  for (int i = 0; i < n; ++i) {
    std::copy_n(a + i * sa, sa, out + i * (sa + sb));
    std::copy_n(b + i * sb, sb, out + i * (sa + sb) + sa);
  }
}

void k_slice_channels(const float* a, float* out, int n, size_t stride_in,
                      size_t stride_out, size_t skip) {
  for (int i = 0; i < n; ++i) {
    std::copy_n(a + i * stride_in + skip, stride_out, out + i * stride_out);
  }
}

void k_conv2d(const float* x, int n, int c, int h, int w, const PackedA& pw,
              int kh, int kw, int stride, int pad, int ho, int wo,
              const float* bias, float* out) {
  pw.conv2d_forward(x, n, c, h, w, kh, kw, stride, pad, ho, wo, bias, out);
}

void k_linear(const float* x, int n, int k, int m, const float* w,
              const float* bias, float* out) {
  gemm_rows(/*trans_a=*/false, /*trans_b=*/true, n, m, k, x, k, w, k, 0.0f,
            out, m);
  if (bias) {
    parallel_for_ranges(
        n, std::max<int64_t>(1, kEwGrain / std::max(1, m)),
        [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            float* orow = out + i * m;
            for (int j = 0; j < m; ++j) orow[j] += bias[j];
          }
        });
  }
}

void k_group_norm(const float* x, const float* gamma, const float* beta,
                  float* out, int n, int c, int groups, size_t inner,
                  float eps) {
  const int cpg = c / groups;
  const size_t gsize = static_cast<size_t>(cpg) * inner;
  parallel_for_ranges(
      static_cast<int64_t>(n) * groups,
      std::max<int64_t>(1, kEwGrain / std::max<int64_t>(1, gsize)),
      [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const int gi = static_cast<int>(t % groups);
          // Pair t = (sample t / groups, group gi) is contiguous in NCHW.
          const size_t base = static_cast<size_t>(t) * gsize;
          const double mu = lat_hiding_sum(x + base, gsize) /
                            static_cast<double>(gsize);
          const double var = lat_hiding_sumsq(x + base, gsize, mu) /
                             static_cast<double>(gsize);
          const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
          const float muf = static_cast<float>(mu);
          // Per-channel affine, hoisted out of the element loop (no
          // per-element channel division; the scale/shift fold into one
          // FMA-friendly form).
          for (int cc = 0; cc < cpg; ++cc) {
            const size_t ch = static_cast<size_t>(gi) * cpg +
                              static_cast<size_t>(cc);
            const float ga = gamma[ch];
            const float b = beta[ch];
            const float* xp = x + base + static_cast<size_t>(cc) * inner;
            float* op = out + base + static_cast<size_t>(cc) * inner;
            for (size_t i = 0; i < inner; ++i) {
              // The eager forward's arithmetic: (x - mu) * is, then
              // gamma * xh + beta, over the same mu/var reductions.
              op[i] = ga * ((xp[i] - muf) * is) + b;
            }
          }
        }
      });
}

void k_avg_pool2d(const float* x, float* out, int n, int c, int h, int w,
                  int k) {
  const int ho = h / k, wo = w / k;
  const float inv = 1.0f / static_cast<float>(k * k);
  for (int t = 0; t < n * c; ++t) {
    const float* xp = x + static_cast<size_t>(t) * h * w;
    float* op = out + static_cast<size_t>(t) * ho * wo;
    for (int oy = 0; oy < ho; ++oy) {
      for (int ox = 0; ox < wo; ++ox) {
        float acc = 0.0f;
        for (int dy = 0; dy < k; ++dy) {
          for (int dx = 0; dx < k; ++dx) {
            acc += xp[(oy * k + dy) * w + ox * k + dx];
          }
        }
        op[oy * wo + ox] = acc * inv;
      }
    }
  }
}

void k_global_avg_pool(const float* x, float* out, int n, int c, int h,
                       int w) {
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int t = 0; t < n * c; ++t) {
    const float* xp = x + static_cast<size_t>(t) * h * w;
    float acc = 0.0f;
    for (int i = 0; i < h * w; ++i) acc += xp[i];
    out[static_cast<size_t>(t)] = acc * inv;
  }
}

void k_upsample2x(const float* x, float* out, int n, int c, int h, int w) {
  const int wo = w * 2;
  for (int t = 0; t < n * c; ++t) {
    const float* xp = x + static_cast<size_t>(t) * h * w;
    float* op = out + static_cast<size_t>(t) * h * 2 * wo;
    for (int y = 0; y < h; ++y) {
      const float* srow = xp + static_cast<size_t>(y) * w;
      float* drow = op + static_cast<size_t>(2 * y) * wo;
      for (int ox = 0; ox < w; ++ox) {
        drow[2 * ox] = srow[ox];
        drow[2 * ox + 1] = srow[ox];
      }
      std::copy_n(drow, wo, drow + wo);  // second output row = first
    }
  }
}

void k_repeat_batch(const float* x, float* out, int n, int k, size_t per) {
  float* dst = out;
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < k; ++r) {
      std::copy(x + static_cast<size_t>(i) * per,
                x + static_cast<size_t>(i + 1) * per, dst);
      dst += per;
    }
  }
}

void k_ensemble_mean(const float* x, float* out, int n, int e, size_t per) {
  const float inv = 1.0f / static_cast<float>(e);
  for (int i = 0; i < n; ++i) {
    const float* rows = x + static_cast<size_t>(i) * e * per;
    float* orow = out + static_cast<size_t>(i) * per;
    for (size_t j = 0; j < per; ++j) {
      // Left-to-right accumulation, matching the eager add() fold.
      float acc = rows[j];
      for (int m = 1; m < e; ++m) acc = acc + rows[static_cast<size_t>(m) * per + j];
      orow[j] = acc * inv;
    }
  }
}

}  // namespace dcdiff::nn::plan

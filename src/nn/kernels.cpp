#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/gemm.h"
#include "nn/threadpool.h"

namespace dcdiff::nn {
namespace {

[[noreturn]] void bad_shape(const char* op, const char* what) {
  throw std::invalid_argument(std::string(op) + ": " + what);
}

int conv_out_dim(int in, int k, int stride, int pad) {
  return (in + 2 * pad - k) / stride + 1;
}

double lat_hiding_sum(const float* p, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += p[i];
    a1 += p[i + 1];
    a2 += p[i + 2];
    a3 += p[i + 3];
  }
  for (; i < n; ++i) a0 += p[i];
  return (a0 + a1) + (a2 + a3);
}

// out[i] = f(a[i]) on the pool, in ranges of at least kActGrain elements.
template <class F>
void activation(const float* a, float* out, size_t n, F f) {
  parallel_for_ranges(static_cast<int64_t>(n), kActGrain,
                      [&](int64_t i0, int64_t i1) {
                        for (int64_t i = i0; i < i1; ++i) out[i] = f(a[i]);
                      });
}

double lat_hiding_sumsq(const float* p, size_t n, double mu) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = p[i] - mu, d1 = p[i + 1] - mu;
    const double d2 = p[i + 2] - mu, d3 = p[i + 3] - mu;
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = p[i] - mu;
    a0 += d * d;
  }
  return (a0 + a1) + (a2 + a3);
}

}  // namespace

// ---------- Shape rules ----------

Shape conv2d_shape(const Shape& x, const Tensor& w, const Tensor& b,
                   int stride, int pad) {
  if (x.size() != 4 || w.ndim() != 4 || x[1] != w.dim(1)) {
    bad_shape("conv2d", "shape mismatch");
  }
  const int ho = conv_out_dim(x[2], w.dim(2), stride, pad);
  const int wo = conv_out_dim(x[3], w.dim(3), stride, pad);
  if (ho <= 0 || wo <= 0) bad_shape("conv2d", "empty output");
  if (b.defined() && (b.ndim() != 1 || b.dim(0) != w.dim(0))) {
    bad_shape("conv2d", "bias mismatch");
  }
  return {x[0], w.dim(0), ho, wo};
}

Shape linear_shape(const Shape& x, const Tensor& w, const Tensor& b) {
  if (x.size() != 2 || w.ndim() != 2 || x[1] != w.dim(1)) {
    bad_shape("linear", "shape mismatch");
  }
  if (b.defined() && (b.ndim() != 1 || b.dim(0) != w.dim(0))) {
    bad_shape("linear", "bias mismatch");
  }
  return {x[0], w.dim(0)};
}

Shape group_norm_shape(const Shape& x, const Tensor& gamma,
                       const Tensor& beta, int groups) {
  if (x.size() < 2) bad_shape("group_norm", "rank");
  if (groups < 1 || x[1] % groups) {
    bad_shape("group_norm", "C % groups != 0");
  }
  if (gamma.ndim() != 1 || gamma.dim(0) != x[1] || beta.ndim() != 1 ||
      beta.dim(0) != x[1]) {
    bad_shape("group_norm", "affine shape");
  }
  return x;
}

Shape mul_per_sample_shape(const Shape& x, const Shape& s) {
  if (x.empty() || s.size() != 1 || s[0] != x[0]) {
    bad_shape("mul_per_sample", "s must be (N)");
  }
  return x;
}

Shape sample_channel_bias_shape(const Shape& x, const Shape& b) {
  if (x.size() != 4 || b.size() != 2 || b[0] != x[0] || b[1] != x[1]) {
    bad_shape("add_sample_channel_bias", "shape");
  }
  return x;
}

Shape concat_channels_shape(const Shape& a, const Shape& b) {
  if (a.size() != b.size() || a.size() < 2) {
    bad_shape("concat_channels", "rank mismatch");
  }
  for (size_t d = 0; d < a.size(); ++d) {
    if (d != 1 && a[d] != b[d]) bad_shape("concat_channels", "dim mismatch");
  }
  Shape out = a;
  out[1] = a[1] + b[1];
  return out;
}

Shape slice_channels_shape(const Shape& a, int c0, int c1) {
  if (a.size() < 2 || c0 < 0 || c1 > a[1] || c0 >= c1) {
    bad_shape("slice_channels", "bad range");
  }
  Shape out = a;
  out[1] = c1 - c0;
  return out;
}

Shape reshape_shape(const Shape& a, const Shape& to) {
  if (shape_numel(to) != shape_numel(a)) {
    bad_shape("reshape", "numel mismatch");
  }
  return to;
}

Shape avg_pool2d_shape(const Shape& x, int k) {
  if (x.size() != 4) bad_shape("avg_pool2d", "x not 4-D");
  if (k < 1 || x[2] % k || x[3] % k) bad_shape("avg_pool2d", "not divisible");
  return {x[0], x[1], x[2] / k, x[3] / k};
}

Shape global_avg_pool_shape(const Shape& x) {
  if (x.size() != 4) bad_shape("global_avg_pool", "not 4-D");
  return {x[0], x[1]};
}

Shape upsample2x_shape(const Shape& x) {
  if (x.size() != 4) bad_shape("upsample", "x not 4-D");
  return {x[0], x[1], x[2] * 2, x[3] * 2};
}

Shape repeat_batch_shape(const Shape& x, int k) {
  if (k < 1) bad_shape("repeat_batch", "k < 1");
  if (x.empty()) bad_shape("repeat_batch", "scalar");
  Shape out = x;
  out[0] *= k;
  return out;
}

Shape ensemble_mean_shape(const Shape& x, int n, int e) {
  if (x.empty() || n < 1 || e < 1 || x[0] != n * e) {
    bad_shape("ensemble_mean", "shape");
  }
  Shape out = x;
  out[0] = n;
  return out;
}

// ---------- Kernels ----------

void act_inplace(Act act, float* p, size_t n) {
  switch (act) {
    case Act::kNone:
      break;
    case Act::kSiLU:
      for (size_t i = 0; i < n; ++i) p[i] = silu_of(p[i]);
      break;
    case Act::kTanh:
      for (size_t i = 0; i < n; ++i) p[i] = tanh_of(p[i]);
      break;
  }
}

void k_silu(const float* a, float* out, size_t n) {
  activation(a, out, n, [](float v) { return silu_of(v); });
}

void k_relu(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] > 0 ? a[i] : 0.0f;
}

void k_tanh(const float* a, float* out, size_t n) {
  activation(a, out, n, [](float v) { return tanh_of(v); });
}

void k_sigmoid(const float* a, float* out, size_t n) {
  activation(a, out, n, [](float v) { return sigmoid_of(v); });
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

void k_linear(const float* x, int n, int k, int m, const float* w,
              const float* bias, float* out, Act act) {
  gemm_rows(/*trans_a=*/false, /*trans_b=*/true, n, m, k, x, k, w, k, 0.0f,
            out, m);
  if (bias || act != Act::kNone) {
    parallel_for_ranges(
        n, std::max<int64_t>(1, ew_grain(act) / std::max(1, m)),
        [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            float* orow = out + i * m;
            if (bias) {
              for (int j = 0; j < m; ++j) orow[j] += bias[j];
            }
            act_inplace(act, orow, static_cast<size_t>(m));
          }
        });
  }
}

GroupStats group_stats(const float* p, size_t n, float eps) {
  const double mu = lat_hiding_sum(p, n) / static_cast<double>(n);
  const double var = lat_hiding_sumsq(p, n, mu) / static_cast<double>(n);
  return {static_cast<float>(mu),
          static_cast<float>(1.0 / std::sqrt(var + eps))};
}

void k_group_norm(const float* x, const float* gamma, const float* beta,
                  float* out, int n, int c, int groups, size_t inner,
                  float eps, Act act) {
  const int cpg = c / groups;
  const size_t gsize = static_cast<size_t>(cpg) * inner;
  parallel_for_ranges(
      static_cast<int64_t>(n) * groups,
      std::max<int64_t>(1, ew_grain(act) / std::max<int64_t>(1, gsize)),
      [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const int gi = static_cast<int>(t % groups);
          // Pair t = (sample t / groups, group gi) is contiguous in NCHW.
          const size_t base = static_cast<size_t>(t) * gsize;
          const GroupStats st = group_stats(x + base, gsize, eps);
          // Per-channel affine, hoisted out of the element loop.
          for (int cc = 0; cc < cpg; ++cc) {
            const size_t ch = static_cast<size_t>(gi) * cpg +
                              static_cast<size_t>(cc);
            const float ga = gamma[ch];
            const float b = beta[ch];
            const float* xp = x + base + static_cast<size_t>(cc) * inner;
            float* op = out + base + static_cast<size_t>(cc) * inner;
            for (size_t i = 0; i < inner; ++i) {
              op[i] = ga * ((xp[i] - st.mu) * st.istd) + b;
            }
          }
          act_inplace(act, out + base, gsize);
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
      float acc = rows[j];
      for (int m = 1; m < e; ++m) {
        acc = acc + rows[static_cast<size_t>(m) * per + j];
      }
      orow[j] = acc * inv;
    }
  }
}

}  // namespace dcdiff::nn

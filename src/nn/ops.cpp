#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "nn/gemm.h"
#include "nn/kernels.h"
#include "nn/packcache.h"
#include "nn/threadpool.h"
#include "nn/workspace.h"

namespace dcdiff::nn {
namespace {

void accumulate(TensorNode& parent, const std::vector<float>& delta) {
  parent.ensure_grad();
  float* g = parent.grad.data();
  const float* d = delta.data();
  parallel_for_ranges(static_cast<int64_t>(delta.size()), kEwGrain,
                      [&](int64_t i0, int64_t i1) {
                        for (int64_t i = i0; i < i1; ++i) g[i] += d[i];
                      });
}

bool wants_grad(const Tensor& t) { return t.requires_grad(); }

}  // namespace

// ---------- Elementwise ----------

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a.shape(), b.shape(), "add");
  std::vector<float> out(a.numel());
  k_add(a.value().data(), b.value().data(), out.data(), out.size());
  return make_result(a.shape(), std::move(out), {a, b},
                     [a, b](TensorNode& self) {
                       if (wants_grad(a)) accumulate(*a.node(), self.grad);
                       if (wants_grad(b)) accumulate(*b.node(), self.grad);
                     });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a.shape(), b.shape(), "sub");
  std::vector<float> out(a.numel());
  k_sub(a.value().data(), b.value().data(), out.data(), out.size());
  return make_result(a.shape(), std::move(out), {a, b},
                     [a, b](TensorNode& self) {
                       if (wants_grad(a)) accumulate(*a.node(), self.grad);
                       if (wants_grad(b)) {
                         auto& g = *b.node();
                         g.ensure_grad();
                         float* gd = g.grad.data();
                         const float* sd = self.grad.data();
                         parallel_for_ranges(
                             static_cast<int64_t>(self.grad.size()), kEwGrain,
                             [&](int64_t i0, int64_t i1) {
                               for (int64_t i = i0; i < i1; ++i) gd[i] -= sd[i];
                             });
                       }
                     });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a.shape(), b.shape(), "mul");
  std::vector<float> out(a.numel());
  const auto& av = a.value();
  const auto& bv = b.value();
  for (size_t i = 0; i < out.size(); ++i) out[i] = av[i] * bv[i];
  return make_result(a.shape(), std::move(out), {a, b},
                     [a, b](TensorNode& self) {
                       if (wants_grad(a)) {
                         auto& g = *a.node();
                         g.ensure_grad();
                         float* gd = g.grad.data();
                         const float* sd = self.grad.data();
                         const float* ov = b.value().data();
                         parallel_for_ranges(
                             static_cast<int64_t>(self.grad.size()), kEwGrain,
                             [&](int64_t i0, int64_t i1) {
                               for (int64_t i = i0; i < i1; ++i) {
                                 gd[i] += sd[i] * ov[i];
                               }
                             });
                       }
                       if (wants_grad(b)) {
                         auto& g = *b.node();
                         g.ensure_grad();
                         float* gd = g.grad.data();
                         const float* sd = self.grad.data();
                         const float* ov = a.value().data();
                         parallel_for_ranges(
                             static_cast<int64_t>(self.grad.size()), kEwGrain,
                             [&](int64_t i0, int64_t i1) {
                               for (int64_t i = i0; i < i1; ++i) {
                                 gd[i] += sd[i] * ov[i];
                               }
                             });
                       }
                     });
}

Tensor scale(const Tensor& a, float s) {
  std::vector<float> out(a.numel());
  k_scale(a.value().data(), out.data(), out.size(), s);
  return make_result(a.shape(), std::move(out), {a},
                     [a, s](TensorNode& self) {
                       if (!wants_grad(a)) return;
                       auto& g = *a.node();
                       g.ensure_grad();
                       for (size_t i = 0; i < self.grad.size(); ++i) {
                         g.grad[i] += self.grad[i] * s;
                       }
                     });
}

Tensor add_scalar(const Tensor& a, float s) {
  std::vector<float> out(a.numel());
  const auto& av = a.value();
  for (size_t i = 0; i < out.size(); ++i) out[i] = av[i] + s;
  return make_result(a.shape(), std::move(out), {a},
                     [a](TensorNode& self) {
                       if (wants_grad(a)) accumulate(*a.node(), self.grad);
                     });
}

Tensor neg(const Tensor& a) { return scale(a, -1.0f); }

Tensor relu(const Tensor& a) {
  std::vector<float> out(a.numel());
  k_relu(a.value().data(), out.data(), out.size());
  return make_result(a.shape(), std::move(out), {a},
                     [a](TensorNode& self) {
                       if (!wants_grad(a)) return;
                       auto& g = *a.node();
                       g.ensure_grad();
                       float* gd = g.grad.data();
                       const float* sd = self.grad.data();
                       const float* av2 = a.value().data();
                       parallel_for_ranges(
                           static_cast<int64_t>(self.grad.size()), kEwGrain,
                           [&](int64_t i0, int64_t i1) {
                             for (int64_t i = i0; i < i1; ++i) {
                               if (av2[i] > 0) gd[i] += sd[i];
                             }
                           });
                     });
}

Tensor sigmoid(const Tensor& a) {
  std::vector<float> out(a.numel());
  k_sigmoid(a.value().data(), out.data(), out.size());
  return make_result(a.shape(), std::move(out), {a},
                     [a](TensorNode& self) {
                       if (!wants_grad(a)) return;
                       auto& g = *a.node();
                       g.ensure_grad();
                       float* gd = g.grad.data();
                       const float* sd = self.grad.data();
                       const float* yv = self.value.data();
                       parallel_for_ranges(
                           static_cast<int64_t>(self.grad.size()), kActGrain,
                           [&](int64_t i0, int64_t i1) {
                             for (int64_t i = i0; i < i1; ++i) {
                               const float y = yv[i];
                               gd[i] += sd[i] * y * (1.0f - y);
                             }
                           });
                     });
}

Tensor silu(const Tensor& a) {
  std::vector<float> out(a.numel());
  k_silu(a.value().data(), out.data(), out.size());
  return make_result(a.shape(), std::move(out), {a},
                     [a](TensorNode& self) {
                       if (!wants_grad(a)) return;
                       auto& g = *a.node();
                       g.ensure_grad();
                       float* gd = g.grad.data();
                       const float* sd = self.grad.data();
                       const float* av2 = a.value().data();
                       parallel_for_ranges(
                           static_cast<int64_t>(self.grad.size()), kActGrain,
                           [&](int64_t i0, int64_t i1) {
                             for (int64_t i = i0; i < i1; ++i) {
                               const float s = sigmoid_of(av2[i]);
                               gd[i] +=
                                   sd[i] * (s * (1.0f + av2[i] * (1.0f - s)));
                             }
                           });
                     });
}

Tensor tanh_op(const Tensor& a) {
  std::vector<float> out(a.numel());
  k_tanh(a.value().data(), out.data(), out.size());
  return make_result(a.shape(), std::move(out), {a},
                     [a](TensorNode& self) {
                       if (!wants_grad(a)) return;
                       auto& g = *a.node();
                       g.ensure_grad();
                       float* gd = g.grad.data();
                       const float* sd = self.grad.data();
                       const float* yv = self.value.data();
                       parallel_for_ranges(
                           static_cast<int64_t>(self.grad.size()), kActGrain,
                           [&](int64_t i0, int64_t i1) {
                             for (int64_t i = i0; i < i1; ++i) {
                               const float y = yv[i];
                               gd[i] += sd[i] * (1.0f - y * y);
                             }
                           });
                     });
}

// ---------- Broadcast helpers ----------

Tensor mul_per_sample(const Tensor& x, const Tensor& s) {
  mul_per_sample_shape(x.shape(), s.shape());
  const size_t per = x.numel() / static_cast<size_t>(x.dim(0));
  std::vector<float> out(x.numel());
  k_mul_per_sample(x.value().data(), s.value().data(), out.data(), out.size(),
                   per);
  return make_result(
      x.shape(), std::move(out), {x, s}, [x, s, per](TensorNode& self) {
        if (wants_grad(x)) {
          auto& g = *x.node();
          g.ensure_grad();
          const auto& sv2 = s.value();
          for (size_t i = 0; i < self.grad.size(); ++i) {
            g.grad[i] += self.grad[i] * sv2[i / per];
          }
        }
        if (wants_grad(s)) {
          auto& g = *s.node();
          g.ensure_grad();
          const auto& xv2 = x.value();
          for (size_t i = 0; i < self.grad.size(); ++i) {
            g.grad[i / per] += self.grad[i] * xv2[i];
          }
        }
      });
}

Tensor add_sample_channel_bias(const Tensor& x, const Tensor& b) {
  sample_channel_bias_shape(x.shape(), b.shape());
  const size_t inner = static_cast<size_t>(x.dim(2)) * x.dim(3);
  std::vector<float> out(x.numel());
  k_add_sample_channel_bias(x.value().data(), b.value().data(), out.data(),
                            out.size(), inner);
  return make_result(x.shape(), std::move(out), {x, b},
                     [x, b, inner](TensorNode& self) {
                       if (wants_grad(x)) accumulate(*x.node(), self.grad);
                       if (wants_grad(b)) {
                         auto& g = *b.node();
                         g.ensure_grad();
                         for (size_t i = 0; i < self.grad.size(); ++i) {
                           g.grad[i / inner] += self.grad[i];
                         }
                       }
                     });
}

// ---------- Reductions / losses ----------

Tensor sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.value()) acc += v;
  return make_result({1}, {static_cast<float>(acc)}, {a},
                     [a](TensorNode& self) {
                       if (!wants_grad(a)) return;
                       auto& g = *a.node();
                       g.ensure_grad();
                       const float go = self.grad[0];
                       for (float& gi : g.grad) gi += go;
                     });
}

Tensor mean(const Tensor& a) {
  return scale(sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor mse_loss(const Tensor& a, const Tensor& b) {
  check_same_shape(a.shape(), b.shape(), "mse_loss");
  double acc = 0.0;
  const auto& av = a.value();
  const auto& bv = b.value();
  for (size_t i = 0; i < av.size(); ++i) {
    const double d = static_cast<double>(av[i]) - bv[i];
    acc += d * d;
  }
  const float n = static_cast<float>(a.numel());
  return make_result(
      {1}, {static_cast<float>(acc / n)}, {a, b},
      [a, b, n](TensorNode& self) {
        const float c = 2.0f * self.grad[0] / n;
        const auto& av2 = a.value();
        const auto& bv2 = b.value();
        if (wants_grad(a)) {
          auto& g = *a.node();
          g.ensure_grad();
          for (size_t i = 0; i < av2.size(); ++i) {
            g.grad[i] += c * (av2[i] - bv2[i]);
          }
        }
        if (wants_grad(b)) {
          auto& g = *b.node();
          g.ensure_grad();
          for (size_t i = 0; i < av2.size(); ++i) {
            g.grad[i] -= c * (av2[i] - bv2[i]);
          }
        }
      });
}

Tensor l1_loss(const Tensor& a, const Tensor& b) {
  check_same_shape(a.shape(), b.shape(), "l1_loss");
  double acc = 0.0;
  const auto& av = a.value();
  const auto& bv = b.value();
  for (size_t i = 0; i < av.size(); ++i) {
    acc += std::abs(static_cast<double>(av[i]) - bv[i]);
  }
  const float n = static_cast<float>(a.numel());
  return make_result(
      {1}, {static_cast<float>(acc / n)}, {a, b},
      [a, b, n](TensorNode& self) {
        const float c = self.grad[0] / n;
        const auto& av2 = a.value();
        const auto& bv2 = b.value();
        if (wants_grad(a)) {
          auto& g = *a.node();
          g.ensure_grad();
          for (size_t i = 0; i < av2.size(); ++i) {
            const float s = av2[i] > bv2[i] ? 1.0f : (av2[i] < bv2[i] ? -1.0f : 0.0f);
            g.grad[i] += c * s;
          }
        }
        if (wants_grad(b)) {
          auto& g = *b.node();
          g.ensure_grad();
          for (size_t i = 0; i < av2.size(); ++i) {
            const float s = av2[i] > bv2[i] ? 1.0f : (av2[i] < bv2[i] ? -1.0f : 0.0f);
            g.grad[i] -= c * s;
          }
        }
      });
}

Tensor cross_entropy(const Tensor& x, const std::vector<int>& targets) {
  if (x.ndim() != 2) throw std::invalid_argument("cross_entropy: x not 2-D");
  const int n = x.dim(0);
  const int k = x.dim(1);
  if (static_cast<int>(targets.size()) != n) {
    throw std::invalid_argument("cross_entropy: target count");
  }
  // Forward: stable log-softmax, mean NLL. Save softmax for backward.
  auto probs = std::make_shared<std::vector<float>>(x.numel());
  const auto& xv = x.value();
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const float* row = xv.data() + static_cast<size_t>(i) * k;
    float* prow = probs->data() + static_cast<size_t>(i) * k;
    float mx = row[0];
    for (int j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double z = 0.0;
    for (int j = 0; j < k; ++j) z += std::exp(static_cast<double>(row[j] - mx));
    const double logz = std::log(z) + mx;
    for (int j = 0; j < k; ++j) {
      prow[j] = static_cast<float>(std::exp(row[j] - logz));
    }
    loss -= static_cast<double>(row[targets[static_cast<size_t>(i)]]) - logz;
  }
  return make_result(
      {1}, {static_cast<float>(loss / n)}, {x},
      [x, probs, targets, n, k](TensorNode& self) {
        if (!wants_grad(x)) return;
        auto& g = *x.node();
        g.ensure_grad();
        const float c = self.grad[0] / static_cast<float>(n);
        for (int i = 0; i < n; ++i) {
          const float* prow = probs->data() + static_cast<size_t>(i) * k;
          float* grow = g.grad.data() + static_cast<size_t>(i) * k;
          for (int j = 0; j < k; ++j) {
            const float ind = j == targets[static_cast<size_t>(i)] ? 1.0f : 0.0f;
            grow[j] += c * (prow[j] - ind);
          }
        }
      });
}

// ---------- Shape ----------

Tensor reshape(const Tensor& a, std::vector<int> new_shape) {
  std::vector<float> out = a.value();
  return make_result(reshape_shape(a.shape(), new_shape), std::move(out), {a},
                     [a](TensorNode& self) {
                       if (wants_grad(a)) accumulate(*a.node(), self.grad);
                     });
}

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  std::vector<int> out_shape = concat_channels_shape(a.shape(), b.shape());
  const int n = a.dim(0);
  const size_t sa = a.numel() / static_cast<size_t>(n);
  const size_t sb = b.numel() / static_cast<size_t>(n);
  std::vector<float> out(shape_numel(out_shape));
  k_concat_channels(a.value().data(), b.value().data(), out.data(), n, sa, sb);
  return make_result(
      std::move(out_shape), std::move(out), {a, b},
      [a, b, n, sa, sb](TensorNode& self) {
        if (wants_grad(a)) {
          auto& g = *a.node();
          g.ensure_grad();
          for (int i = 0; i < n; ++i) {
            const float* src = self.grad.data() + i * (sa + sb);
            float* dst = g.grad.data() + i * sa;
            for (size_t j = 0; j < sa; ++j) dst[j] += src[j];
          }
        }
        if (wants_grad(b)) {
          auto& g = *b.node();
          g.ensure_grad();
          for (int i = 0; i < n; ++i) {
            const float* src = self.grad.data() + i * (sa + sb) + sa;
            float* dst = g.grad.data() + i * sb;
            for (size_t j = 0; j < sb; ++j) dst[j] += src[j];
          }
        }
      });
}

Tensor slice_channels(const Tensor& a, int c0, int c1) {
  std::vector<int> out_shape = slice_channels_shape(a.shape(), c0, c1);
  const int n = a.dim(0);
  const size_t inner = a.numel() / (static_cast<size_t>(n) * a.dim(1));
  std::vector<float> out(shape_numel(out_shape));
  const size_t stride_in = static_cast<size_t>(a.dim(1)) * inner;
  const size_t stride_out = static_cast<size_t>(c1 - c0) * inner;
  k_slice_channels(a.value().data(), out.data(), n, stride_in, stride_out,
                   c0 * inner);
  return make_result(
      std::move(out_shape), std::move(out), {a},
      [a, n, c0, inner, stride_in, stride_out](TensorNode& self) {
        if (!wants_grad(a)) return;
        auto& g = *a.node();
        g.ensure_grad();
        for (int i = 0; i < n; ++i) {
          const float* src = self.grad.data() + i * stride_out;
          float* dst = g.grad.data() + i * stride_in + c0 * inner;
          for (size_t j = 0; j < stride_out; ++j) dst[j] += src[j];
        }
      });
}

// ---------- Linear ----------

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b) {
  linear_shape(x.shape(), w, b);
  const int n = x.dim(0), kk = x.dim(1), m = w.dim(0);
  std::vector<float> out(static_cast<size_t>(n) * m);
  k_linear(x.value().data(), n, kk, m, w.value().data(),
           b.defined() ? b.value().data() : nullptr, out.data());
  std::vector<Tensor> parents = b.defined()
                                    ? std::vector<Tensor>{x, w, b}
                                    : std::vector<Tensor>{x, w};
  return make_result(
      {n, m}, std::move(out), std::move(parents),
      [x, w, b, n, kk, m](TensorNode& self) {
        const float* go = self.grad.data();
        if (wants_grad(x)) {
          auto& g = *x.node();
          g.ensure_grad();
          // dX += dOut (n x m) * W (m x k).
          gemm(false, false, n, kk, m, go, m, w.value().data(), kk, 1.0f,
               g.grad.data(), kk);
        }
        if (wants_grad(w)) {
          auto& g = *w.node();
          g.ensure_grad();
          // dW += dOut^T (m x n) * X (n x k).
          gemm(/*trans_a=*/true, false, m, kk, n, go, m, x.value().data(), kk,
               1.0f, g.grad.data(), kk);
        }
        if (b.defined() && wants_grad(b)) {
          auto& g = *b.node();
          g.ensure_grad();
          float* gd = g.grad.data();
          parallel_for_ranges(
              m, std::max<int64_t>(1, kEwGrain / std::max(1, n)),
              [&](int64_t j0, int64_t j1) {
                for (int64_t j = j0; j < j1; ++j) {
                  float acc = 0.0f;
                  for (int i = 0; i < n; ++i) {
                    acc += go[static_cast<size_t>(i) * m + j];
                  }
                  gd[j] += acc;
                }
              });
        }
      });
}

// ---------- Convolutional ----------

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int pad) {
  const std::vector<int> out_shape = conv2d_shape(x.shape(), w, b, stride, pad);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int f = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int ho = out_shape[2], wo = out_shape[3];
  const int kdim = c * kh * kw;           // GEMM reduction depth
  const int64_t npix = static_cast<int64_t>(ho) * wo;  // output pixels
  // 1x1 stride-1 unpadded convs (ResBlock shortcuts)
  // are already a plain channel-mixing GEMM: the input plane IS the patch
  // matrix, so the gradients skip the im2col / col2im copies entirely.
  const bool fast_1x1 = kh == 1 && kw == 1 && stride == 1 && pad == 0;

  std::vector<float> out(static_cast<size_t>(n) * f * npix);
  const float* wv = w.value().data();
  // The weight matrix is identical for every sample, so it is packed into
  // micro-kernel panels once (PackedA) and the whole batch, bias included,
  // runs as one conv2d_forward dispatch. Frozen weights under a bound
  // PackCache (inference through a model) reuse process-lifetime panels:
  // packed once per weight node per process instead of once per call, and
  // shared with model replicas and compiled plans. Anything that might
  // still train re-packs locally.
  PackCache* pack_cache = PackCache::current();
  std::optional<PackedA> local_pack;
  const PackedA* pw = nullptr;
  if (pack_cache != nullptr && !grad_enabled() && !w.requires_grad()) {
    pw = &pack_cache->get(w, f, kdim);
  } else {
    local_pack.emplace(false, f, kdim, wv, kdim);
    pw = &*local_pack;
  }
  pw->conv2d_forward(x.value().data(), n, c, h, ww, kh, kw, stride, pad, ho,
                     wo, b.defined() ? b.value().data() : nullptr, out.data());

  std::vector<Tensor> parents = b.defined()
                                    ? std::vector<Tensor>{x, w, b}
                                    : std::vector<Tensor>{x, w};
  return make_result(
      out_shape, std::move(out), std::move(parents),
      [x, w, b, n, c, h, ww, f, kh, kw, ho, wo, stride, pad, kdim, npix,
       fast_1x1](TensorNode& self) {
        const float* go = self.grad.data();
        if (wants_grad(x)) {
          auto& g = *x.node();
          g.ensure_grad();
          const float* wv2 = w.value().data();
          Workspace::Scope scope;
          float* dcol =
              fast_1x1 ? nullptr
                       : Workspace::tls().floats(
                             static_cast<size_t>(kdim) * npix);
          for (int ni = 0; ni < n; ++ni) {
            const float* gplane = go + static_cast<size_t>(ni) * f * npix;
            float* gx = g.grad.data() + static_cast<size_t>(ni) * c * h * ww;
            if (fast_1x1) {
              // dX plane += W^T (kdim x f) * dOut plane (f x npix).
              gemm(/*trans_a=*/true, false, kdim, npix, f, wv2, kdim, gplane,
                   npix, 1.0f, gx, npix);
            } else {
              gemm(/*trans_a=*/true, false, kdim, npix, f, wv2, kdim, gplane,
                   npix, 0.0f, dcol, npix);
              col2im_add(dcol, c, h, ww, kh, kw, stride, pad, ho, wo, gx);
            }
          }
        }
        if (wants_grad(w)) {
          auto& g = *w.node();
          g.ensure_grad();
          const float* xv2 = x.value().data();
          Workspace::Scope scope;
          float* col =
              fast_1x1 ? nullptr
                       : Workspace::tls().floats(
                             static_cast<size_t>(kdim) * npix);
          for (int ni = 0; ni < n; ++ni) {
            const float* xplane = xv2 + static_cast<size_t>(ni) * c * h * ww;
            const float* patches = xplane;
            if (!fast_1x1) {
              im2col(xplane, c, h, ww, kh, kw, stride, pad, ho, wo, col);
              patches = col;
            }
            // dW += dOut plane (f x npix) * patches^T (npix x kdim).
            gemm(false, /*trans_b=*/true, f, kdim, npix,
                 go + static_cast<size_t>(ni) * f * npix, npix, patches, npix,
                 1.0f, g.grad.data(), kdim);
          }
        }
        if (b.defined() && wants_grad(b)) {
          auto& g = *b.node();
          g.ensure_grad();
          float* gd = g.grad.data();
          // Filter-parallel: each range owns disjoint bias entries.
          parallel_for_ranges(
              f, std::max<int64_t>(1, kEwGrain / std::max<int64_t>(1, n * npix)),
              [&](int64_t f0, int64_t f1) {
                for (int64_t fi = f0; fi < f1; ++fi) {
                  float acc = 0.0f;
                  for (int ni = 0; ni < n; ++ni) {
                    const float* gplane =
                        go + (static_cast<size_t>(ni) * f + fi) * npix;
                    for (int64_t i = 0; i < npix; ++i) acc += gplane[i];
                  }
                  gd[fi] += acc;
                }
              });
        }
      });
}

Tensor avg_pool2d(const Tensor& x, int k) {
  std::vector<int> out_shape = avg_pool2d_shape(x.shape(), k);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = h / k, wo = w / k;
  std::vector<float> out(shape_numel(out_shape));
  k_avg_pool2d(x.value().data(), out.data(), n, c, h, w, k);
  const float inv = 1.0f / static_cast<float>(k * k);
  return make_result(
      std::move(out_shape), std::move(out), {x},
      [x, n, c, h, w, ho, wo, k, inv](TensorNode& self) {
        if (!wants_grad(x)) return;
        auto& g = *x.node();
        g.ensure_grad();
        for (int t = 0; t < n * c; ++t) {
          float* gp = g.grad.data() + static_cast<size_t>(t) * h * w;
          const float* sp = self.grad.data() + static_cast<size_t>(t) * ho * wo;
          for (int oy = 0; oy < ho; ++oy) {
            for (int ox = 0; ox < wo; ++ox) {
              const float v = sp[oy * wo + ox] * inv;
              for (int dy = 0; dy < k; ++dy) {
                for (int dx = 0; dx < k; ++dx) {
                  gp[(oy * k + dy) * w + ox * k + dx] += v;
                }
              }
            }
          }
        }
      });
}

Tensor global_avg_pool(const Tensor& x) {
  std::vector<int> out_shape = global_avg_pool_shape(x.shape());
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  std::vector<float> out(static_cast<size_t>(n) * c);
  k_global_avg_pool(x.value().data(), out.data(), n, c, h, w);
  const float inv = 1.0f / static_cast<float>(h * w);
  return make_result(std::move(out_shape), std::move(out), {x},
                     [x, n, c, h, w, inv](TensorNode& self) {
                       if (!wants_grad(x)) return;
                       auto& g = *x.node();
                       g.ensure_grad();
                       for (int t = 0; t < n * c; ++t) {
                         const float v = self.grad[static_cast<size_t>(t)] * inv;
                         float* gp =
                             g.grad.data() + static_cast<size_t>(t) * h * w;
                         for (int i = 0; i < h * w; ++i) gp[i] += v;
                       }
                     });
}

Tensor upsample_nearest2x(const Tensor& x) {
  std::vector<int> out_shape = upsample2x_shape(x.shape());
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = h * 2, wo = w * 2;
  std::vector<float> out(shape_numel(out_shape));
  k_upsample2x(x.value().data(), out.data(), n, c, h, w);
  return make_result(std::move(out_shape), std::move(out), {x},
                     [x, n, c, h, w, ho, wo](TensorNode& self) {
                       if (!wants_grad(x)) return;
                       auto& g = *x.node();
                       g.ensure_grad();
                       for (int t = 0; t < n * c; ++t) {
                         float* gp =
                             g.grad.data() + static_cast<size_t>(t) * h * w;
                         const float* sp = self.grad.data() +
                                           static_cast<size_t>(t) * ho * wo;
                         for (int oy = 0; oy < ho; ++oy) {
                           for (int ox = 0; ox < wo; ++ox) {
                             gp[(oy / 2) * w + ox / 2] += sp[oy * wo + ox];
                           }
                         }
                       }
                     });
}

Tensor group_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  int groups, float eps) {
  group_norm_shape(x.shape(), gamma, beta, groups);
  const int n = x.dim(0), c = x.dim(1);
  const size_t inner = x.numel() / (static_cast<size_t>(n) * c);
  const int cpg = c / groups;
  const size_t gsize = static_cast<size_t>(cpg) * inner;
  std::vector<float> out(x.numel());
  k_group_norm(x.value().data(), gamma.value().data(), beta.value().data(),
               out.data(), n, c, groups, inner, eps);
  return make_result(
      x.shape(), std::move(out), {x, gamma, beta},
      [x, gamma, beta, n, c, groups, cpg, inner, gsize,
       eps](TensorNode& self) {
        const float* go = self.grad.data();
        const float* xv = x.value().data();
        const float* gv2 = gamma.value().data();
        // The forward keeps no xhat: each (sample, group)'s statistics are
        // recomputed by the forward's own reduction, so every xhat below,
        // (x - mu) * istd, has the forward's bits.
        std::vector<GroupStats> stats(static_cast<size_t>(n) * groups);
        for (size_t t = 0; t < stats.size(); ++t) {
          stats[t] = group_stats(xv + t * gsize, gsize, eps);
        }
        if (wants_grad(gamma)) {
          auto& g = *gamma.node();
          g.ensure_grad();
          for (int ni = 0; ni < n; ++ni) {
            for (int ch = 0; ch < c; ++ch) {
              const size_t base =
                  (static_cast<size_t>(ni) * c + ch) * inner;
              const GroupStats st =
                  stats[static_cast<size_t>(ni) * groups + ch / cpg];
              float acc = 0.0f;
              for (size_t i = 0; i < inner; ++i) {
                acc += go[base + i] * ((xv[base + i] - st.mu) * st.istd);
              }
              g.grad[static_cast<size_t>(ch)] += acc;
            }
          }
        }
        if (wants_grad(beta)) {
          auto& g = *beta.node();
          g.ensure_grad();
          for (int ni = 0; ni < n; ++ni) {
            for (int ch = 0; ch < c; ++ch) {
              const size_t base =
                  (static_cast<size_t>(ni) * c + ch) * inner;
              float acc = 0.0f;
              for (size_t i = 0; i < inner; ++i) acc += go[base + i];
              g.grad[static_cast<size_t>(ch)] += acc;
            }
          }
        }
        if (wants_grad(x)) {
          auto& g = *x.node();
          g.ensure_grad();
          for (size_t t = 0; t < stats.size(); ++t) {
            const int gi = static_cast<int>(t % groups);
            const size_t base = t * gsize;
            const GroupStats st = stats[t];
            // dxhat = go * gamma (per channel)
            double mean_dxhat = 0.0, mean_dxhat_xhat = 0.0;
            for (size_t i = 0; i < gsize; ++i) {
              const size_t ch = static_cast<size_t>(gi) * cpg + i / inner;
              const double d = static_cast<double>(go[base + i]) * gv2[ch];
              const float xh = (xv[base + i] - st.mu) * st.istd;
              mean_dxhat += d;
              mean_dxhat_xhat += d * xh;
            }
            mean_dxhat /= static_cast<double>(gsize);
            mean_dxhat_xhat /= static_cast<double>(gsize);
            for (size_t i = 0; i < gsize; ++i) {
              const size_t ch = static_cast<size_t>(gi) * cpg + i / inner;
              const float dxhat = go[base + i] * gv2[ch];
              const float xh = (xv[base + i] - st.mu) * st.istd;
              g.grad[base + i] +=
                  st.istd * (dxhat - static_cast<float>(mean_dxhat) -
                             xh * static_cast<float>(mean_dxhat_xhat));
            }
          }
        }
      });
}

Tensor timestep_embedding(const std::vector<int>& t, int dim,
                          float max_period) {
  const int n = static_cast<int>(t.size());
  const int half = dim / 2;
  std::vector<float> out(static_cast<size_t>(n) * dim, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < half; ++j) {
      const float freq =
          std::exp(-std::log(max_period) * static_cast<float>(j) /
                   static_cast<float>(half));
      const float arg = static_cast<float>(t[static_cast<size_t>(i)]) * freq;
      out[static_cast<size_t>(i) * dim + j] = std::cos(arg);
      out[static_cast<size_t>(i) * dim + half + j] = std::sin(arg);
    }
  }
  return Tensor::from_data({n, dim}, std::move(out));
}

}  // namespace dcdiff::nn

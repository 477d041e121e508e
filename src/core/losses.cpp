#include "core/losses.h"

#include <cmath>
#include <stdexcept>

namespace dcdiff::core {
namespace {

// Resolves broadcasting of a (N,1,H,W) or (1,1,H,W) mask against x (N,C,H,W)
// and returns a pointer to sample n's mask plane.
const float* mask_plane(const nn::Tensor& mask, int n, size_t hw) {
  const int mn = mask.dim(0);
  return mask.value().data() + static_cast<size_t>(mn == 1 ? 0 : n) * hw;
}

void check_mask(const nn::Tensor& x, const nn::Tensor& mask) {
  if (x.ndim() != 4 || mask.ndim() != 4 || mask.dim(1) != 1 ||
      mask.dim(2) != x.dim(2) || mask.dim(3) != x.dim(3) ||
      (mask.dim(0) != 1 && mask.dim(0) != x.dim(0))) {
    throw std::invalid_argument("mask shape must be (N|1,1,H,W)");
  }
}

}  // namespace

nn::Tensor laplacian_mask(const Image& tilde, float threshold) {
  const int h = tilde.height(), w = tilde.width();
  std::vector<float> m(static_cast<size_t>(h) * w);
  const auto& luma = tilde.plane(0);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = std::abs(luma[i]) <= threshold ? 1.0f : 0.0f;
  }
  return nn::Tensor::from_data({1, 1, h, w}, std::move(m));
}

nn::Tensor corner_mask(int height, int width, int block) {
  std::vector<float> m(static_cast<size_t>(height) * width, 0.0f);
  auto fill = [&](int y0, int x0) {
    for (int y = y0; y < y0 + block; ++y) {
      for (int x = x0; x < x0 + block; ++x) {
        if (y >= 0 && y < height && x >= 0 && x < width) {
          m[static_cast<size_t>(y) * width + x] = 1.0f;
        }
      }
    }
  };
  // The four corner blocks of the block grid covering the image.
  const int last_by = ((height + block - 1) / block - 1) * block;
  const int last_bx = ((width + block - 1) / block - 1) * block;
  fill(0, 0);
  fill(0, last_bx);
  fill(last_by, 0);
  fill(last_by, last_bx);
  return nn::Tensor::from_data({1, 1, height, width}, std::move(m));
}

nn::Tensor mld_loss(const nn::Tensor& xhat, const nn::Tensor& mask) {
  check_mask(xhat, mask);
  const int n = xhat.dim(0), c = xhat.dim(1), h = xhat.dim(2),
            w = xhat.dim(3);
  const size_t hw = static_cast<size_t>(h) * w;
  const auto& xv = xhat.value();

  // Forward: accumulate masked squared second differences; count terms.
  double acc = 0.0;
  int64_t terms = 0;
  for (int ni = 0; ni < n; ++ni) {
    const float* mp = mask_plane(mask, ni, hw);
    for (int ci = 0; ci < c; ++ci) {
      const float* xp = xv.data() + (static_cast<size_t>(ni) * c + ci) * hw;
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          if (mp[static_cast<size_t>(y) * w + x] == 0.0f) continue;
          if (x >= 2) {
            const double th = 2.0 * xp[static_cast<size_t>(y) * w + x - 1] -
                              xp[static_cast<size_t>(y) * w + x] -
                              xp[static_cast<size_t>(y) * w + x - 2];
            acc += th * th;
            ++terms;
          }
          if (y >= 2) {
            const double tv =
                2.0 * xp[(static_cast<size_t>(y) - 1) * w + x] -
                xp[static_cast<size_t>(y) * w + x] -
                (static_cast<double>(xp[(static_cast<size_t>(y) - 2) * w + x]));
            acc += tv * tv;
            ++terms;
          }
        }
      }
    }
  }
  const float norm = static_cast<float>(std::max<int64_t>(terms, 1));
  const float loss = static_cast<float>(acc) / norm;

  return nn::make_result(
      {1}, {loss}, {xhat, mask},
      [xhat, mask, n, c, h, w, hw, norm](nn::TensorNode& self) {
        if (!xhat.requires_grad()) return;
        auto& g = *xhat.node();
        g.ensure_grad();
        const float scale = 2.0f * self.grad[0] / norm;
        const auto& xv2 = xhat.value();
        for (int ni = 0; ni < n; ++ni) {
          const float* mp = mask_plane(mask, ni, hw);
          for (int ci = 0; ci < c; ++ci) {
            const size_t base = (static_cast<size_t>(ni) * c + ci) * hw;
            const float* xp = xv2.data() + base;
            float* gp = g.grad.data() + base;
            for (int y = 0; y < h; ++y) {
              for (int x = 0; x < w; ++x) {
                if (mp[static_cast<size_t>(y) * w + x] == 0.0f) continue;
                if (x >= 2) {
                  const size_t i0 = static_cast<size_t>(y) * w + x;
                  const float th =
                      2.0f * xp[i0 - 1] - xp[i0] - xp[i0 - 2];
                  const float v = scale * th;
                  gp[i0 - 1] += 2.0f * v;
                  gp[i0] -= v;
                  gp[i0 - 2] -= v;
                }
                if (y >= 2) {
                  const size_t i0 = static_cast<size_t>(y) * w + x;
                  const float tv = 2.0f * xp[i0 - static_cast<size_t>(w)] -
                                   xp[i0] - xp[i0 - 2 * static_cast<size_t>(w)];
                  const float v = scale * tv;
                  gp[i0 - static_cast<size_t>(w)] += 2.0f * v;
                  gp[i0] -= v;
                  gp[i0 - 2 * static_cast<size_t>(w)] -= v;
                }
              }
            }
          }
        }
      });
}

nn::Tensor masked_mse(const nn::Tensor& a, const nn::Tensor& b,
                      const nn::Tensor& mask) {
  nn::check_same_shape(a.shape(), b.shape(), "masked_mse");
  check_mask(a, mask);
  const int n = a.dim(0), c = a.dim(1);
  const size_t hw = static_cast<size_t>(a.dim(2)) * a.dim(3);
  const auto& av = a.value();
  const auto& bv = b.value();
  double acc = 0.0;
  int64_t terms = 0;
  for (int ni = 0; ni < n; ++ni) {
    const float* mp = mask_plane(mask, ni, hw);
    for (int ci = 0; ci < c; ++ci) {
      const size_t base = (static_cast<size_t>(ni) * c + ci) * hw;
      for (size_t i = 0; i < hw; ++i) {
        if (mp[i] == 0.0f) continue;
        const double d = static_cast<double>(av[base + i]) - bv[base + i];
        acc += d * d;
        ++terms;
      }
    }
  }
  const float norm = static_cast<float>(std::max<int64_t>(terms, 1));
  const float loss = static_cast<float>(acc) / norm;
  return nn::make_result(
      {1}, {loss}, {a, b, mask},
      [a, b, mask, n, c, hw, norm](nn::TensorNode& self) {
        const float scale = 2.0f * self.grad[0] / norm;
        const auto& av2 = a.value();
        const auto& bv2 = b.value();
        auto apply = [&](nn::TensorNode& g, float sign) {
          g.ensure_grad();
          for (int ni = 0; ni < n; ++ni) {
            const float* mp = mask_plane(mask, ni, hw);
            for (int ci = 0; ci < c; ++ci) {
              const size_t base = (static_cast<size_t>(ni) * c + ci) * hw;
              for (size_t i = 0; i < hw; ++i) {
                if (mp[i] == 0.0f) continue;
                g.grad[base + i] +=
                    sign * scale * (av2[base + i] - bv2[base + i]);
              }
            }
          }
        };
        if (a.requires_grad()) apply(*a.node(), 1.0f);
        if (b.requires_grad()) apply(*b.node(), -1.0f);
      });
}

nn::Tensor gradient_l1_loss(const nn::Tensor& a, const nn::Tensor& b) {
  nn::check_same_shape(a.shape(), b.shape(), "gradient_l1_loss");
  if (a.ndim() != 4) throw std::invalid_argument("gradient_l1_loss: rank");
  const int n = a.dim(0), c = a.dim(1), h = a.dim(2), w = a.dim(3);
  const size_t hw = static_cast<size_t>(h) * w;
  const auto& av = a.value();
  const auto& bv = b.value();
  double acc = 0.0;
  int64_t terms = 0;
  for (int t = 0; t < n * c; ++t) {
    const float* ap = av.data() + static_cast<size_t>(t) * hw;
    const float* bp = bv.data() + static_cast<size_t>(t) * hw;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const size_t i = static_cast<size_t>(y) * w + x;
        if (x + 1 < w) {
          acc += std::abs((ap[i + 1] - ap[i]) - (bp[i + 1] - bp[i]));
          ++terms;
        }
        if (y + 1 < h) {
          acc += std::abs((ap[i + w] - ap[i]) - (bp[i + w] - bp[i]));
          ++terms;
        }
      }
    }
  }
  const float norm = static_cast<float>(std::max<int64_t>(terms, 1));
  const float loss = static_cast<float>(acc) / norm;
  return nn::make_result(
      {1}, {loss}, {a, b}, [a, b, n, c, h, w, hw, norm](nn::TensorNode& self) {
        const float s0 = self.grad[0] / norm;
        const auto& av2 = a.value();
        const auto& bv2 = b.value();
        auto apply = [&](nn::TensorNode& g, float sign) {
          g.ensure_grad();
          for (int t = 0; t < n * c; ++t) {
            const float* ap = av2.data() + static_cast<size_t>(t) * hw;
            const float* bp = bv2.data() + static_cast<size_t>(t) * hw;
            float* gp = g.grad.data() + static_cast<size_t>(t) * hw;
            for (int y = 0; y < h; ++y) {
              for (int x = 0; x < w; ++x) {
                const size_t i = static_cast<size_t>(y) * w + x;
                if (x + 1 < w) {
                  const float d = (ap[i + 1] - ap[i]) - (bp[i + 1] - bp[i]);
                  const float sg = d > 0 ? 1.0f : (d < 0 ? -1.0f : 0.0f);
                  gp[i + 1] += sign * s0 * sg;
                  gp[i] -= sign * s0 * sg;
                }
                if (y + 1 < h) {
                  const float d = (ap[i + w] - ap[i]) - (bp[i + w] - bp[i]);
                  const float sg = d > 0 ? 1.0f : (d < 0 ? -1.0f : 0.0f);
                  gp[i + w] += sign * s0 * sg;
                  gp[i] -= sign * s0 * sg;
                }
              }
            }
          }
        };
        if (a.requires_grad()) apply(*a.node(), 1.0f);
        if (b.requires_grad()) apply(*b.node(), -1.0f);
      });
}

}  // namespace dcdiff::core

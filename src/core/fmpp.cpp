#include "core/fmpp.h"

namespace dcdiff::core {

using namespace dcdiff::nn;

FMPP::FMPP(uint64_t seed) {
  Rng rng(seed ^ 0xF377ull);
  c1_ = Conv2d(3, 8, 3, 2, 1, rng);
  c2_ = Conv2d(8, 16, 3, 2, 1, rng);
  c3_ = Conv2d(16, 16, 3, 2, 1, rng);
  fc_ = Linear(16, 2, rng);
}

FMPP::Factors FMPP::forward(const Tensor& tilde) const {
  Tensor h = relu(c1_(tilde));
  // Residual 16-channel stage (ResNet-style skip around c3).
  h = relu(c2_(h));
  h = add(relu(c3_(h)), avg_pool2d(h, 2));
  h = global_avg_pool(h);
  Tensor out = scale(sigmoid(fc_(h)), 2.0f);  // (N,2) in (0,2)
  const int n = out.dim(0);
  Factors f;
  f.s = reshape(slice_channels(out, 0, 1), {n});
  f.b = reshape(slice_channels(out, 1, 2), {n});
  return f;
}

std::vector<Tensor> FMPP::params() const {
  std::vector<Tensor> p;
  c1_.collect(p);
  c2_.collect(p);
  c3_.collect(p);
  fc_.collect(p);
  return p;
}

}  // namespace dcdiff::core

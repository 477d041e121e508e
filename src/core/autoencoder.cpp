#include "core/autoencoder.h"

#include "nn/plan/builder.h"

namespace dcdiff::core {

using namespace dcdiff::nn;

Autoencoder::Autoencoder(const AutoencoderConfig& cfg, uint64_t seed)
    : cfg_(cfg) {
  Rng rng(seed);
  const int b = cfg.base;
  // E^DC: 3 -> b (s2) -> 2b (s2) -> z
  dc_in_ = Conv2d(3, b, 3, 2, 1, rng);
  dc_n1_ = GroupNorm(b, norm_groups_for(b));
  dc_down_ = Conv2d(b, 2 * b, 3, 2, 1, rng);
  dc_n2_ = GroupNorm(2 * b, norm_groups_for(2 * b));
  dc_out_ = Conv2d(2 * b, cfg.z_channels, 3, 1, 1, rng);
  // E^AC: 3 -> b (s2) -> 2b (s2) -> ac_channels
  ac_in_ = Conv2d(3, b, 3, 2, 1, rng);
  ac_n1_ = GroupNorm(b, norm_groups_for(b));
  ac_down_ = Conv2d(b, 2 * b, 3, 2, 1, rng);
  ac_n2_ = GroupNorm(2 * b, norm_groups_for(2 * b));
  ac_out_ = Conv2d(2 * b, cfg.ac_channels, 3, 1, 1, rng);
  // D: concat(z, ac_quarter) -> res -> up -> (+ ac_half skip) -> up -> 3
  const int cin = cfg.z_channels + cfg.ac_channels;
  dec_res_ = ResBlock(cin, 3 * b, /*temb_dim=*/0, rng);
  dec_up1_ = Conv2d(3 * b + b, 2 * b, 3, 1, 1, rng);  // + half-res AC skip
  dec_n1_ = GroupNorm(2 * b, norm_groups_for(2 * b));
  dec_up2_ = Conv2d(2 * b, b, 3, 1, 1, rng);
  dec_n2_ = GroupNorm(b, norm_groups_for(b));
  dec_out_ = Conv2d(b, 3, 3, 1, 1, rng);
}

Tensor Autoencoder::encode_dc(const Tensor& x) const {
  Tensor h = silu(dc_n1_(dc_in_(x)));
  h = silu(dc_n2_(dc_down_(h)));
  return tanh_op(dc_out_(h));
}

ACFeatures Autoencoder::encode_ac(const Tensor& tilde) const {
  ACFeatures f;
  f.half = silu(ac_n1_(ac_in_(tilde)));
  Tensor h = silu(ac_n2_(ac_down_(f.half)));
  f.quarter = ac_out_(h);
  return f;
}

Tensor Autoencoder::decode(const Tensor& z, const ACFeatures& ac) const {
  Tensor h = dec_res_(concat_channels(z, ac.quarter));
  h = upsample_nearest2x(h);
  h = silu(dec_n1_(dec_up1_(concat_channels(h, ac.half))));
  h = upsample_nearest2x(h);
  h = silu(dec_n2_(dec_up2_(h)));
  return tanh_op(dec_out_(h));
}

plan::TensorId Autoencoder::capture_decode(plan::GraphBuilder& g,
                                           plan::TensorId z,
                                           plan::TensorId quarter,
                                           plan::TensorId half) const {
  plan::TensorId h =
      dec_res_.capture(g, g.concat_channels(z, quarter), plan::kNoTensor);
  h = g.upsample2x(h);
  h = g.silu(
      dec_n1_.capture(g, dec_up1_.capture(g, g.concat_channels(h, half))));
  h = g.upsample2x(h);
  h = g.silu(dec_n2_.capture(g, dec_up2_.capture(g, h)));
  return g.tanh(dec_out_.capture(g, h));
}

std::vector<Tensor> Autoencoder::params() const {
  std::vector<Tensor> p;
  dc_in_.collect(p);
  dc_n1_.collect(p);
  dc_down_.collect(p);
  dc_n2_.collect(p);
  dc_out_.collect(p);
  ac_in_.collect(p);
  ac_n1_.collect(p);
  ac_down_.collect(p);
  ac_n2_.collect(p);
  ac_out_.collect(p);
  dec_res_.collect(p);
  dec_up1_.collect(p);
  dec_n1_.collect(p);
  dec_up2_.collect(p);
  dec_n2_.collect(p);
  dec_out_.collect(p);
  return p;
}

PatchDiscriminator::PatchDiscriminator(uint64_t seed) {
  Rng rng(seed);
  c1_ = Conv2d(3, 16, 3, 2, 1, rng);
  c2_ = Conv2d(16, 32, 3, 2, 1, rng);
  c3_ = Conv2d(32, 1, 3, 1, 1, rng);
}

Tensor PatchDiscriminator::forward(const Tensor& x) const {
  Tensor h = relu(c1_(x));
  h = relu(c2_(h));
  return c3_(h);
}

std::vector<Tensor> PatchDiscriminator::params() const {
  std::vector<Tensor> p;
  c1_.collect(p);
  c2_.collect(p);
  c3_.collect(p);
  return p;
}

Tensor hinge_d_loss(const Tensor& d_real, const Tensor& d_fake) {
  // mean(relu(1 - d_real)) + mean(relu(1 + d_fake))
  const Tensor real_term = mean(relu(add_scalar(neg(d_real), 1.0f)));
  const Tensor fake_term = mean(relu(add_scalar(d_fake, 1.0f)));
  return add(real_term, fake_term);
}

Tensor hinge_g_loss(const Tensor& d_fake) { return neg(mean(d_fake)); }

}  // namespace dcdiff::core

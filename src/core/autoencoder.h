// Stage-1 model (Section III-B): DC encoder E^DC, AC encoder E^AC, and the
// decoder D, plus the patch discriminator used for L_dis.
//
// E^DC compresses the *original* image into the small DC feature space z0
// (tanh-bounded so the stage-2 diffusion operates on a well-scaled latent).
// E^AC encodes x-tilde, which contains only AC information because DC was
// zeroed at the sender. D needs both streams to reconstruct, which is what
// forces E^DC to carry exactly the DC content (the information D cannot get
// from E^AC).
//
// Spatial downsampling factor is 4: a HxW image has a (H/4)x(W/4) latent.
#pragma once

#include <vector>

#include "nn/modules.h"

namespace dcdiff::core {

struct AutoencoderConfig {
  int z_channels = 4;    // DC latent channels
  int ac_channels = 32;  // AC feature channels at latent resolution
  int base = 16;         // first-layer width
};

// Multi-scale AC features: the decoder receives the AC stream at latent
// resolution *and* a half-resolution skip, so the transmitted AC detail
// flows to the output unimpeded and z only has to carry the DC field.
struct ACFeatures {
  nn::Tensor half;     // (N, base,        H/2, W/2)
  nn::Tensor quarter;  // (N, ac_channels, H/4, W/4)
};

class Autoencoder {
 public:
  Autoencoder(const AutoencoderConfig& cfg, uint64_t seed);

  // x: (N,3,H,W) in [-1,1]. Returns z0: (N,z_channels,H/4,W/4) in (-1,1).
  nn::Tensor encode_dc(const nn::Tensor& x) const;
  // tilde: (N,3,H,W) (x-tilde / 128).
  ACFeatures encode_ac(const nn::Tensor& tilde) const;
  // Decodes (z, ac features) to the reconstruction in [-1,1].
  nn::Tensor decode(const nn::Tensor& z, const ACFeatures& ac) const;

  // Plan-capture counterpart of decode (see nn/plan/builder.h); `quarter`
  // and `half` are the two ACFeatures fields.
  nn::plan::TensorId capture_decode(nn::plan::GraphBuilder& g,
                                    nn::plan::TensorId z,
                                    nn::plan::TensorId quarter,
                                    nn::plan::TensorId half) const;

  const AutoencoderConfig& config() const { return cfg_; }
  std::vector<nn::Tensor> params() const;

 private:
  AutoencoderConfig cfg_;
  // E^DC
  nn::Conv2d dc_in_, dc_down_, dc_out_;
  nn::GroupNorm dc_n1_, dc_n2_;
  // E^AC
  nn::Conv2d ac_in_, ac_down_, ac_out_;
  nn::GroupNorm ac_n1_, ac_n2_;
  // D
  nn::ResBlock dec_res_;
  nn::Conv2d dec_up1_, dec_up2_, dec_out_;
  nn::GroupNorm dec_n1_, dec_n2_;
};

// PatchGAN-style discriminator for L_dis (hinge loss). Output is a logit
// map over overlapping patches.
class PatchDiscriminator {
 public:
  explicit PatchDiscriminator(uint64_t seed);
  nn::Tensor forward(const nn::Tensor& x) const;  // (N,1,H/4,W/4) logits
  std::vector<nn::Tensor> params() const;

 private:
  nn::Conv2d c1_, c2_, c3_;
};

// Hinge losses. d_real/d_fake are discriminator logit maps.
nn::Tensor hinge_d_loss(const nn::Tensor& d_real, const nn::Tensor& d_fake);
nn::Tensor hinge_g_loss(const nn::Tensor& d_fake);

}  // namespace dcdiff::core

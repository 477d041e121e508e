// Latent diffusion machinery (Section III-B/D): DDPM schedule, the noise
// prediction UNet with its ControlNet-style control module (structure
// conditioning on x-tilde), and a DDIM sampler with FreeU-style frequency
// modulation (per-sample backbone/skip scale factors s and b).
//
// Every latent row carries its own timestep: the UNet, its step plan
// (core/running_batch.h) and the DDIM formulas below take one timestep per
// row. The sampler, stage-2 training (forward noising at a random t per
// sample) and FMPP's truncated DDIM loop all use these formulas, so the
// schedule is read only here.
#pragma once

#include <functional>
#include <vector>

#include "nn/modules.h"

namespace dcdiff::core {

// Linear-beta DDPM schedule with precomputed cumulative products.
struct DiffusionSchedule {
  int T = 0;
  std::vector<float> beta;
  std::vector<float> alpha_bar;      // prod (1 - beta)
  std::vector<float> sqrt_ab;        // sqrt(alpha_bar)
  std::vector<float> sqrt_one_m_ab;  // sqrt(1 - alpha_bar)

  static DiffusionSchedule linear(int T, float beta_start = 1e-4f,
                                  float beta_end = 2e-2f);

  // The `steps` evenly spaced timesteps of a DDIM chain, ascending from 0
  // to T-1 (a chain visits them from the back). Throws
  // std::invalid_argument unless 1 <= steps <= T.
  std::vector<int> ddim_timesteps(int steps) const;
};

struct UNetConfig {
  int z_channels = 4;
  int base = 32;     // channel width at latent resolution
  int temb_dim = 64;
};

// Control module: extracts structure features from x-tilde at the two UNet
// resolutions. Injected additively (zero-impact at init is approximated by
// the small random init of the projection convs).
class ControlModule {
 public:
  ControlModule(const UNetConfig& cfg, uint64_t seed);
  struct Features {
    nn::Tensor c1;  // (N, base,   H/4, W/4)
    nn::Tensor c2;  // (N, 2*base, H/8, W/8)
  };
  Features forward(const nn::Tensor& tilde) const;
  std::vector<nn::Tensor> params() const;

 private:
  nn::Conv2d in_, down_, proj1_, proj2_;
  nn::GroupNorm n1_, n2_;
};

// Two-level UNet over the latent. The up-path concatenation applies the
// FreeU-style modulation: backbone features scaled by `s`, skip features by
// `b` (per-sample scalars; pass undefined tensors for the unmodulated s=b=1).
class UNet {
 public:
  UNet(const UNetConfig& cfg, uint64_t seed);

  nn::Tensor forward(const nn::Tensor& z_t, const std::vector<int>& t,
                     const ControlModule::Features& ctrl,
                     const nn::Tensor& s = nn::Tensor(),
                     const nn::Tensor& b = nn::Tensor()) const;
  // Records forward() of the rows `z_t` into a plan graph. `temb` is the
  // rows' sinusoidal timestep embedding (rows, temb_dim), so the embedding
  // MLP and each block's projection run per row as in forward(). `s`/`b`
  // are the rows' FreeU factors, always present: ones give the unmodulated
  // forward's bytes, since x * 1 is x.
  nn::plan::TensorId capture(nn::plan::GraphBuilder& g, nn::plan::TensorId z_t,
                             nn::plan::TensorId temb, nn::plan::TensorId c1,
                             nn::plan::TensorId c2, nn::plan::TensorId s,
                             nn::plan::TensorId b) const;
  std::vector<nn::Tensor> params() const;
  const UNetConfig& config() const { return cfg_; }

 private:
  UNetConfig cfg_;
  nn::Linear temb1_, temb2_;
  nn::Conv2d conv_in_;
  nn::ResBlock res_down_;
  nn::Conv2d downsample_;
  nn::ResBlock res_mid1_, res_mid2_;
  nn::ResBlock res_up_;
  nn::GroupNorm norm_out_;
  nn::Conv2d conv_out_;
};

// What the noise-prediction network's output parameterizes.
enum class Prediction {
  kEps,  // classic DDPM epsilon-prediction
  kX0,   // direct z0-prediction (x0-parameterization); more accurate at low
         // step counts for strongly-conditioned latents, used by default
};

// Checkpoint hook of ddim_sample_checkpointed: invoked once per completed
// DDIM step with the current clamped z0 estimate — a decodable (coarser)
// latent — and the number of steps finished so far (1..steps). Return true
// to keep sampling, false to stop early; the sampler then returns that
// checkpoint as its result. The hook observes z0 between steps and perturbs
// no arithmetic.
using DdimCheckpointFn = std::function<bool(const nn::Tensor& z0,
                                            int steps_done)>;

// Eager DDIM sampling (eta = 0) of a z0 latent on UNet::forward: `steps`
// evenly spaced timesteps from the initial z_T `noise` (N, z_channels, h,
// w), every row at the same step, each step one ddim_step. s/b as in
// UNet::forward (undefined tensors for s = b = 1). Runs under NoGradGuard;
// `on_checkpoint` may be empty (a plain full-length run). The reference
// the model's planned path (core/running_batch.h) is compared against.
nn::Tensor ddim_sample_checkpointed(const UNet& unet,
                                    const DiffusionSchedule& sched,
                                    const ControlModule::Features& ctrl,
                                    const nn::Tensor& noise, int steps,
                                    const nn::Tensor& s, const nn::Tensor& b,
                                    Prediction prediction,
                                    const DdimCheckpointFn& on_checkpoint);

// The DDIM formulas, each row at its own timestep t[i] (t.size() == rows).

// Forward noising q(z_t | z0) with the noise `eps` given:
//   z_t = sqrt(ab_t) z0 + sqrt(1-ab_t) eps
// With eps the network's noise estimate and t the previous timestep of a
// chain, this is also the eta = 0 DDIM update. Differentiable.
nn::Tensor q_sample(const nn::Tensor& z0, const nn::Tensor& eps,
                    const DiffusionSchedule& sched, const std::vector<int>& t);

// Recovers z0 from (z_t, predicted eps):
//   z0 = (z_t - sqrt(1-ab_t) eps) / sqrt(ab_t)
// Differentiable; used by the stage-2 MLD projection.
nn::Tensor predict_z0(const nn::Tensor& z_t, const nn::Tensor& eps,
                      const DiffusionSchedule& sched,
                      const std::vector<int>& t);

// Inverse relation for the x0-parameterization:
//   eps = (z_t - sqrt(ab_t) z0) / sqrt(1-ab_t)
nn::Tensor eps_from_z0(const nn::Tensor& z_t, const nn::Tensor& z0,
                       const DiffusionSchedule& sched,
                       const std::vector<int>& t);

// The one DDIM step (eta = 0), in place on `rows` latent rows of `per`
// floats, row r from timestep t[r] to t_prev[r], given the network's
// prediction `pred` for the rows z. Writes the row's z0 estimate to z0:
// pred itself (kX0) or predict_z0 (kEps), clamped to the tanh-bounded
// latent range [-1.2, 1.2]. Then, unless t_prev[r] < 0 (the row's last
// step), overwrites z with q_sample(z0, eps, t_prev), eps being the
// prediction (kEps) or eps_from_z0 (kX0). `pred` is clobbered, and so is z
// of a row at its last step. Each product, difference and sum is its own
// nn kernel pass, as in the tensor formulas above, so the bytes equal
// theirs on any compiler contraction setting. The running batch,
// ddim_sample_checkpointed and FMPP training's truncated chain all step
// through here.
void ddim_step(const DiffusionSchedule& sched, Prediction prediction,
               int rows, size_t per, const int* t, const int* t_prev,
               float* pred, float* z, float* z0);

}  // namespace dcdiff::core

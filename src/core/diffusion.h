// Latent diffusion machinery (Section III-B/D): DDPM schedule, the noise
// prediction UNet with its ControlNet-style control module (structure
// conditioning on x-tilde), and a DDIM sampler with FreeU-style frequency
// modulation (per-sample backbone/skip scale factors s and b).
//
// Every latent row carries its own timestep: the UNet, its step plan
// (core/recon_plan.h) and the DDIM formulas below take one timestep per
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

// Checkpoint hook for anytime sampling: invoked once per completed DDIM step
// with the current clamped z0 estimate — a decodable (coarser) latent — and
// the number of steps finished so far (1..steps). Return true to keep
// sampling, false to stop early; the sampler then returns that checkpoint
// as its result. A run whose hook always returns true is bit-identical to
// one without a hook: the hook observes z0 between the existing update
// statements and perturbs no arithmetic.
using DdimCheckpointFn = std::function<bool(const nn::Tensor& z0,
                                            int steps_done)>;

// One network forward of the sampler: the prediction for the latent rows
// `z_t`, row i at timestep t[i].
using DdimDenoiser = std::function<nn::Tensor(const nn::Tensor& z_t,
                                              const std::vector<int>& t)>;

// DDIM sampling (eta = 0) of a z0 latent: the one sampler loop, whichever
// executor runs the network. `steps` evenly-spaced timesteps; `noise` is the
// initial z_T (shape (N, z_channels, h, w)); `denoise` is the UNet forward,
// eager or planned (core/recon_plan.h). Each step is ddim_z0 and
// ddim_update below, run eager between the forwards. Runs under
// NoGradGuard. `on_checkpoint` may be empty (a plain full-length run).
nn::Tensor ddim_sample(const DdimDenoiser& denoise,
                       const DiffusionSchedule& sched, const nn::Tensor& noise,
                       int steps, Prediction prediction,
                       const DdimCheckpointFn& on_checkpoint);

// ddim_sample with the eager UNet::forward as the denoiser; s/b as in
// UNet::forward (undefined tensors for s = b = 1).
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

// The sampler's z0 estimate from the network prediction `pred` for the
// rows z_t: pred itself (kX0) or predict_z0 (kEps), clamped to the
// tanh-bounded latent range [-1.2, 1.2]. The clamp writes in place (into
// `pred` for kX0), so this is for no-grad sampling loops.
nn::Tensor ddim_z0(const nn::Tensor& z_t, const nn::Tensor& pred,
                   const DiffusionSchedule& sched, const std::vector<int>& t,
                   Prediction prediction);

// One eta = 0 DDIM step of the rows z_t from timesteps t to t_prev, given
// the prediction and its clamped z0 (ddim_z0): q_sample(z0, eps, t_prev),
// with eps the prediction (kEps) or eps_from_z0 (kX0).
nn::Tensor ddim_update(const nn::Tensor& z_t, const nn::Tensor& pred,
                       const nn::Tensor& z0, const DiffusionSchedule& sched,
                       const std::vector<int>& t,
                       const std::vector<int>& t_prev, Prediction prediction);

}  // namespace dcdiff::core

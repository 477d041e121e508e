#include "core/diffusion.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/kernels.h"
#include "nn/plan/builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcdiff::core {

using namespace dcdiff::nn;

DiffusionSchedule DiffusionSchedule::linear(int T, float beta_start,
                                            float beta_end) {
  DiffusionSchedule s;
  s.T = T;
  s.beta.resize(static_cast<size_t>(T));
  s.alpha_bar.resize(static_cast<size_t>(T));
  s.sqrt_ab.resize(static_cast<size_t>(T));
  s.sqrt_one_m_ab.resize(static_cast<size_t>(T));
  double ab = 1.0;
  // T == 1 would divide by zero below (NaN betas); a one-step schedule just
  // uses beta_start.
  const float t_denom = static_cast<float>(std::max(1, T - 1));
  for (int t = 0; t < T; ++t) {
    const float b = beta_start + (beta_end - beta_start) *
                                     static_cast<float>(t) / t_denom;
    s.beta[static_cast<size_t>(t)] = b;
    ab *= 1.0 - b;
    s.sqrt_ab[static_cast<size_t>(t)] = static_cast<float>(std::sqrt(ab));
  }
  // Zero-terminal-SNR rescaling: a short linear-beta schedule leaves
  // alpha_bar(T) well above zero, so q(z_T|z0) would still carry signal
  // while sampling starts from pure noise -- a train/test mismatch that
  // wrecks low-step DDIM. Shift/rescale sqrt(alpha_bar) so the final step
  // is exactly signal-free (Lin et al.'s "zero terminal SNR" fix).
  {
    const float s0 = s.sqrt_ab[0];
    const float sT = s.sqrt_ab[static_cast<size_t>(T - 1)];
    const float denom = std::max(1e-6f, s0 - sT);
    for (int t = 0; t < T; ++t) {
      float& v = s.sqrt_ab[static_cast<size_t>(t)];
      v = (v - sT) * s0 / denom;
    }
  }
  for (int t = 0; t < T; ++t) {
    const float sab = s.sqrt_ab[static_cast<size_t>(t)];
    s.alpha_bar[static_cast<size_t>(t)] = sab * sab;
    s.sqrt_one_m_ab[static_cast<size_t>(t)] =
        static_cast<float>(std::sqrt(std::max(0.0f, 1.0f - sab * sab)));
  }
  return s;
}

std::vector<int> DiffusionSchedule::ddim_timesteps(int steps) const {
  if (steps < 1 || steps > T) {
    throw std::invalid_argument("ddim: bad step count");
  }
  std::vector<int> ts(static_cast<size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    ts[static_cast<size_t>(i)] = static_cast<int>(
        static_cast<int64_t>(T - 1) * i / std::max(1, steps - 1));
  }
  return ts;
}

ControlModule::ControlModule(const UNetConfig& cfg, uint64_t seed) {
  Rng rng(seed ^ 0xC0117701ull);
  in_ = Conv2d(3, cfg.base / 2, 3, 2, 1, rng);
  n1_ = GroupNorm(cfg.base / 2, norm_groups_for(cfg.base / 2));
  down_ = Conv2d(cfg.base / 2, cfg.base, 3, 2, 1, rng);
  n2_ = GroupNorm(cfg.base, norm_groups_for(cfg.base));
  proj1_ = Conv2d(cfg.base, cfg.base, 3, 1, 1, rng);
  proj2_ = Conv2d(cfg.base, 2 * cfg.base, 3, 2, 1, rng);
}

ControlModule::Features ControlModule::forward(const Tensor& tilde) const {
  Tensor h = silu(n1_(in_(tilde)));
  h = silu(n2_(down_(h)));
  Features f;
  f.c1 = proj1_(h);
  f.c2 = proj2_(h);
  return f;
}

std::vector<Tensor> ControlModule::params() const {
  std::vector<Tensor> p;
  in_.collect(p);
  n1_.collect(p);
  down_.collect(p);
  n2_.collect(p);
  proj1_.collect(p);
  proj2_.collect(p);
  return p;
}

UNet::UNet(const UNetConfig& cfg, uint64_t seed) : cfg_(cfg) {
  Rng rng(seed ^ 0x0DD51ull);
  temb1_ = Linear(cfg.temb_dim, cfg.temb_dim, rng);
  temb2_ = Linear(cfg.temb_dim, cfg.temb_dim, rng);
  conv_in_ = Conv2d(cfg.z_channels, cfg.base, 3, 1, 1, rng);
  res_down_ = ResBlock(cfg.base, cfg.base, cfg.temb_dim, rng);
  downsample_ = Conv2d(cfg.base, cfg.base, 3, 2, 1, rng);
  res_mid1_ = ResBlock(cfg.base, 2 * cfg.base, cfg.temb_dim, rng);
  res_mid2_ = ResBlock(2 * cfg.base, 2 * cfg.base, cfg.temb_dim, rng);
  res_up_ = ResBlock(3 * cfg.base, cfg.base, cfg.temb_dim, rng);
  norm_out_ = GroupNorm(cfg.base, norm_groups_for(cfg.base));
  conv_out_ = Conv2d(cfg.base, cfg.z_channels, 3, 1, 1, rng);
}

Tensor UNet::forward(const Tensor& z_t, const std::vector<int>& t,
                     const ControlModule::Features& ctrl, const Tensor& s,
                     const Tensor& b) const {
  if (static_cast<int>(t.size()) != z_t.dim(0)) {
    throw std::invalid_argument("UNet: timestep count != batch");
  }
  Tensor temb = timestep_embedding(t, cfg_.temb_dim);
  temb = temb2_(silu(temb1_(temb)));

  Tensor h0 = add(conv_in_(z_t), ctrl.c1);
  Tensor skip = res_down_(h0, temb);
  Tensor hd = downsample_(skip);
  Tensor hm = add(res_mid1_(hd, temb), ctrl.c2);
  hm = res_mid2_(hm, temb);
  Tensor backbone = upsample_nearest2x(hm);
  // FreeU-style frequency modulation: re-weight backbone vs skip features.
  if (s.defined()) backbone = mul_per_sample(backbone, s);
  Tensor skip_mod = b.defined() ? mul_per_sample(skip, b) : skip;
  Tensor hu = res_up_(concat_channels(skip_mod, backbone), temb);
  return conv_out_(silu(norm_out_(hu)));
}

plan::TensorId UNet::capture(plan::GraphBuilder& g, plan::TensorId z_t,
                             plan::TensorId temb, plan::TensorId c1,
                             plan::TensorId c2, plan::TensorId s,
                             plan::TensorId b) const {
  const plan::TensorId st = g.silu(
      temb2_.capture(g, g.silu(temb1_.capture(g, temb))));
  const auto temb_bias = [&](const ResBlock& rb) {
    return rb.temb_proj.capture(g, st);
  };
  const plan::TensorId h0 = g.add(conv_in_.capture(g, z_t), c1);
  const plan::TensorId skip = res_down_.capture(g, h0, temb_bias(res_down_));
  const plan::TensorId hd = downsample_.capture(g, skip);
  plan::TensorId hm =
      g.add(res_mid1_.capture(g, hd, temb_bias(res_mid1_)), c2);
  hm = res_mid2_.capture(g, hm, temb_bias(res_mid2_));
  const plan::TensorId backbone = g.mul_per_sample(g.upsample2x(hm), s);
  const plan::TensorId hu = res_up_.capture(
      g, g.concat_channels(g.mul_per_sample(skip, b), backbone),
      temb_bias(res_up_));
  return conv_out_.capture(g, g.silu(norm_out_.capture(g, hu)));
}

std::vector<Tensor> UNet::params() const {
  std::vector<Tensor> p;
  temb1_.collect(p);
  temb2_.collect(p);
  conv_in_.collect(p);
  res_down_.collect(p);
  downsample_.collect(p);
  res_mid1_.collect(p);
  res_mid2_.collect(p);
  res_up_.collect(p);
  norm_out_.collect(p);
  conv_out_.collect(p);
  return p;
}

namespace {

// The (rows) tensor of f(t[i]), one schedule scalar per row.
template <typename F>
Tensor per_row(const std::vector<int>& t, F f) {
  std::vector<float> v(t.size());
  for (size_t i = 0; i < t.size(); ++i) v[i] = f(static_cast<size_t>(t[i]));
  return Tensor::from_data({static_cast<int>(t.size())}, std::move(v));
}

}  // namespace

Tensor q_sample(const Tensor& z0, const Tensor& eps,
                const DiffusionSchedule& sched, const std::vector<int>& t) {
  const Tensor sab = per_row(t, [&](size_t ti) { return sched.sqrt_ab[ti]; });
  const Tensor s1m =
      per_row(t, [&](size_t ti) { return sched.sqrt_one_m_ab[ti]; });
  return add(mul_per_sample(z0, sab), mul_per_sample(eps, s1m));
}

Tensor predict_z0(const Tensor& z_t, const Tensor& eps,
                  const DiffusionSchedule& sched, const std::vector<int>& t) {
  // Guard the zero-terminal-SNR endpoint (sqrt_ab == 0 at t = T-1).
  const auto sab = [&](size_t ti) {
    return std::max(1e-4f, sched.sqrt_ab[ti]);
  };
  const Tensor inv_sab = per_row(t, [&](size_t ti) { return 1.0f / sab(ti); });
  const Tensor ratio = per_row(
      t, [&](size_t ti) { return sched.sqrt_one_m_ab[ti] / sab(ti); });
  return sub(mul_per_sample(z_t, inv_sab), mul_per_sample(eps, ratio));
}

Tensor eps_from_z0(const Tensor& z_t, const Tensor& z0,
                   const DiffusionSchedule& sched, const std::vector<int>& t) {
  const auto s1m = [&](size_t ti) {
    return std::max(1e-4f, sched.sqrt_one_m_ab[ti]);
  };
  const Tensor inv_s1m = per_row(t, [&](size_t ti) { return 1.0f / s1m(ti); });
  const Tensor ratio =
      per_row(t, [&](size_t ti) { return sched.sqrt_ab[ti] / s1m(ti); });
  return sub(mul_per_sample(z_t, inv_s1m), mul_per_sample(z0, ratio));
}

void ddim_step(const DiffusionSchedule& sched, Prediction prediction,
               int rows, size_t per, const int* t, const int* t_prev,
               float* pred, float* z, float* z0) {
  for (int r = 0; r < rows; ++r) {
    const size_t ti = static_cast<size_t>(t[r]);
    float* p = pred + static_cast<size_t>(r) * per;
    float* zr = z + static_cast<size_t>(r) * per;
    float* z0r = z0 + static_cast<size_t>(r) * per;
    const bool last = t_prev[r] < 0;
    if (prediction == Prediction::kEps) {
      // z0 = z_t * (1 / sab) - eps * (s1m / sab), as predict_z0.
      const float sab = std::max(1e-4f, sched.sqrt_ab[ti]);
      k_scale(zr, z0r, per, 1.0f / sab);
      k_scale(p, zr, per, sched.sqrt_one_m_ab[ti] / sab);
      k_sub(z0r, zr, z0r, per);
    }
    // Latents are tanh-bounded by the DC encoder; clamp the estimate.
    const float* est = prediction == Prediction::kEps ? z0r : p;
    k_clamp(est, z0r, per, -1.2f, 1.2f);
    if (last) continue;
    if (prediction == Prediction::kX0) {
      // eps = z_t * (1 / s1m) - z0 * (sab / s1m), as eps_from_z0,
      // into pred.
      const float s1m = std::max(1e-4f, sched.sqrt_one_m_ab[ti]);
      k_scale(zr, zr, per, 1.0f / s1m);
      k_scale(z0r, p, per, sched.sqrt_ab[ti] / s1m);
      k_sub(zr, p, p, per);
    }
    // z_{t_prev} = z0 * sab' + eps * s1m', as q_sample.
    const size_t tp = static_cast<size_t>(t_prev[r]);
    k_scale(z0r, zr, per, sched.sqrt_ab[tp]);
    k_scale(p, p, per, sched.sqrt_one_m_ab[tp]);
    k_add(zr, p, zr, per);
  }
}

Tensor ddim_sample_checkpointed(const UNet& unet,
                                const DiffusionSchedule& sched,
                                const ControlModule::Features& ctrl,
                                const Tensor& noise, int steps,
                                const Tensor& s, const Tensor& b,
                                Prediction prediction,
                                const DdimCheckpointFn& on_checkpoint) {
  NoGradGuard no_grad;
  DCDIFF_TRACE_SPAN("ddim_sample");
  const std::vector<int> ts = sched.ddim_timesteps(steps);
  const int rows = noise.dim(0);
  const size_t per = noise.numel() / static_cast<size_t>(rows);
  // z is stepped in place: the forward keeps no reference to its input.
  Tensor z = Tensor::from_data(noise.shape(), noise.value());
  // steps >= 1, so the loop returns at k == 0 at the latest.
  for (int k = steps - 1;; --k) {
    DCDIFF_TRACE_SPAN("ddim_step");
    const std::vector<int> t(static_cast<size_t>(rows),
                             ts[static_cast<size_t>(k)]);
    const std::vector<int> t_prev(static_cast<size_t>(rows),
                                  k > 0 ? ts[static_cast<size_t>(k - 1)] : -1);
    Tensor pred = unet.forward(z, t, ctrl, s, b);
    Tensor z0 = Tensor::from_data(noise.shape(),
                                  std::vector<float>(noise.numel()));
    ddim_step(sched, prediction, rows, per, t.data(), t_prev.data(),
              pred.value().data(), z.value().data(), z0.value().data());
    if ((on_checkpoint && !on_checkpoint(z0, steps - k)) || k == 0) {
      return z0;
    }
  }
}

}  // namespace dcdiff::core

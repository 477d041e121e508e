#include "core/recon_plan.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "nn/plan/builder.h"
#include "obs/log.h"

namespace dcdiff::core {

using namespace dcdiff::nn;

Status GroupPlans::open(plan::PlanCache& cache, PackCache& packs,
                        const UNet& unet, const Autoencoder& ae, int n,
                        int ensemble, int h, int w,
                        std::optional<GroupPlans>* out) {
  const UNetConfig& uc = unet.config();
  const int rows = n * ensemble;
  const std::string hw = std::to_string(h) + "x" + std::to_string(w);
  std::shared_ptr<const plan::Plan> step, decoder;
  Status st = cache.get_or_build(
      "unet_r" + std::to_string(rows) + "_" + hw,
      [&](plan::GraphBuilder& g) {
        const plan::TensorId z = g.input({rows, uc.z_channels, h, w});
        const plan::TensorId temb = g.input({rows, uc.temb_dim});
        const plan::TensorId c1 = g.input({rows, uc.base, h, w});
        const plan::TensorId c2 = g.input({rows, 2 * uc.base, h / 2, w / 2});
        const plan::TensorId s = g.input({rows});
        const plan::TensorId b = g.input({rows});
        g.mark_output(unet.capture(g, z, temb, c1, c2, s, b));
      },
      packs, &step);
  if (!st.is_ok()) return st;
  const AutoencoderConfig& ac = ae.config();
  st = cache.get_or_build(
      "decoder_" + hw,
      [&](plan::GraphBuilder& g) {
        const plan::TensorId z = g.input({1, ac.z_channels, h, w});
        const plan::TensorId quarter = g.input({1, ac.ac_channels, h, w});
        const plan::TensorId half = g.input({1, ac.base, 2 * h, 2 * w});
        g.mark_output(ae.capture_decode(g, z, quarter, half));
      },
      packs, &decoder);
  if (!st.is_ok()) return st;
  try {
    plan::reserve_thread_arena(
        std::max(step->arena_floats(), decoder->arena_floats()));
  } catch (const std::exception& e) {
    const Status st = Status::internal(std::string("plan arena: ") + e.what());
    DCDIFF_LOG_WARN("core.plan", "arena_failed", {{"error", st.to_string()}});
    return st;
  }
  out->emplace(GroupPlans(std::move(step), std::move(decoder), uc.temb_dim));
  return Status::ok();
}

namespace {

// Runs `p` in the thread's arena and copies its output to `dst` at once, so
// nothing lives in the arena between runs.
void run_into(const plan::Plan& p, const std::vector<const float*>& inputs,
              float* dst) {
  std::vector<const float*> outs;
  p.run(inputs, &outs);
  std::copy_n(outs[0], p.output_numel(0), dst);
}

}  // namespace

Tensor GroupPlans::denoise(const Tensor& z_t, const std::vector<int>& t,
                           const ControlModule::Features& ctrl,
                           const Tensor& s, const Tensor& b) {
  const Tensor temb = timestep_embedding(t, temb_dim_);
  std::vector<float> out(step_->output_numel(0));
  run_into(*step_,
           {z_t.value().data(), temb.value().data(), ctrl.c1.value().data(),
            ctrl.c2.value().data(), s.value().data(), b.value().data()},
           out.data());
  return Tensor::from_data(step_->output_shape(0), std::move(out));
}

Tensor GroupPlans::decode(const Tensor& z0, const ACFeatures& ac) {
  const size_t n = static_cast<size_t>(z0.dim(0));
  const size_t per = decoder_->output_numel(0);
  std::vector<float> out(n * per);
  for (size_t i = 0; i < n; ++i) {
    run_into(*decoder_,
             {z0.value().data() + i * (z0.numel() / n),
              ac.quarter.value().data() + i * (ac.quarter.numel() / n),
              ac.half.value().data() + i * (ac.half.numel() / n)},
             out.data() + i * per);
  }
  std::vector<int> shape = decoder_->output_shape(0);
  shape[0] = static_cast<int>(n);
  return Tensor::from_data(std::move(shape), std::move(out));
}

}  // namespace dcdiff::core

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

void GroupPlans::denoise(const float* z, const std::vector<int>& t,
                         const float* c1, const float* c2, const float* s,
                         const float* b, float* pred) {
  const Tensor temb = timestep_embedding(t, temb_dim_);
  run_into(*step_, {z, temb.value().data(), c1, c2, s, b}, pred);
}

Tensor GroupPlans::denoise(const Tensor& z_t, const std::vector<int>& t,
                           const ControlModule::Features& ctrl,
                           const Tensor& s, const Tensor& b) {
  std::vector<float> out(step_->output_numel(0));
  denoise(z_t.value().data(), t, ctrl.c1.value().data(),
          ctrl.c2.value().data(), s.value().data(), b.value().data(),
          out.data());
  return Tensor::from_data(step_->output_shape(0), std::move(out));
}

void GroupPlans::decode(const float* z0, const float* quarter,
                        const float* half, float* out) {
  run_into(*decoder_, {z0, quarter, half}, out);
}

}  // namespace dcdiff::core

#include "core/recon_plan.h"

#include <stdexcept>

#include "nn/plan/builder.h"

namespace dcdiff::core {

using namespace dcdiff::nn;

std::string ReconPlanKey::str() const {
  return "n" + std::to_string(n) + "_e" + std::to_string(ensemble) + "_s" +
         std::to_string(steps) + "_" + std::to_string(ph) + "x" +
         std::to_string(pw) + (use_fmpp ? "_fmpp" : "_nofmpp") +
         (prediction == Prediction::kX0 ? "_x0" : "_eps");
}

namespace {

// Mirrors the eager executor of DCDiffModel::reconstruct_batch_anytime op
// for op: conditioning at batch n, sampling on the folded n*ensemble row
// axis, ensemble mean, decode.
void build_recon_graph(plan::GraphBuilder& g, const ReconPlanKey& key,
                       const ControlModule& control, const Autoencoder& ae,
                       const FMPP& fmpp, const UNet& unet,
                       const DiffusionSchedule& sched) {
  if (key.n < 1 || key.ensemble < 1 || key.ph < 8 || key.pw < 8 ||
      key.ph % 8 != 0 || key.pw % 8 != 0) {
    throw std::invalid_argument("recon plan: bad group shape");
  }
  const int zc = unet.config().z_channels;
  const plan::TensorId tilde = g.input({key.n, 3, key.ph, key.pw});
  const plan::TensorId noise =
      g.input({key.n * key.ensemble, zc, key.ph / 4, key.pw / 4});
  auto [c1, c2] = control.capture(g, tilde);
  const Autoencoder::CapturedAC ac = ae.capture_encode_ac(g, tilde);
  plan::TensorId s = plan::kNoTensor;
  plan::TensorId b = plan::kNoTensor;
  if (key.use_fmpp) {
    const FMPP::CapturedFactors f = fmpp.capture(g, tilde);
    s = g.repeat_batch(f.s, key.ensemble);
    b = g.repeat_batch(f.b, key.ensemble);
  }
  if (key.ensemble > 1) {
    c1 = g.repeat_batch(c1, key.ensemble);
    c2 = g.repeat_batch(c2, key.ensemble);
  }
  const plan::TensorId z_rows = capture_ddim(
      g, unet, sched, c1, c2, noise, key.steps, s, b, key.prediction);
  const plan::TensorId z0 = key.ensemble > 1
                                ? g.ensemble_mean(z_rows, key.n, key.ensemble)
                                : z_rows;
  g.mark_output(ae.capture_decode(g, z0, ac));
}

}  // namespace

Status ReconPlanner::get(const ReconPlanKey& key, const ControlModule& control,
                         const Autoencoder& ae, const FMPP& fmpp,
                         const UNet& unet, const DiffusionSchedule& sched,
                         nn::PackCache& packs,
                         std::shared_ptr<const nn::plan::Plan>* out) {
  return cache_.get_or_build(
      key.str(),
      [&](plan::GraphBuilder& g) {
        build_recon_graph(g, key, control, ae, fmpp, unet, sched);
      },
      packs, out);
}

}  // namespace dcdiff::core

// Compile-once reconstruction plans (see nn/plan/): the two networks a
// reconstruction runs, each captured once per shape and executed in the
// calling thread's liveness-planned arena.
//
// * The UNet-step plan: one denoising forward, keyed by (rows, latent
//   h x w). It takes what UNet::forward takes: each row's timestep (as its
//   sinusoidal embedding) and FreeU factors (ones when FMPP is off), so
//   rows at different steps can share a run and requests with and without
//   FMPP share plans. The one DDIM loop (core/diffusion.h) runs it once per
//   step, so no plan key holds the step count, the ensemble size or the
//   prediction kind, and a caller may watch or stop the chain between
//   steps.
// * The decoder plan: the stage-1 decoder on one image, keyed by latent
//   h x w alone. GroupPlans::decode runs it once per image of the group;
//   every kernel is row-invariant, so that equals the batched eager decode
//   byte for byte, a group of any size reuses the one plan, and the
//   thread's arena is sized by the step plan.
//
// The conditioner (control module, AC encoder, FMPP) runs once per call and
// is the cheapest stage, so it has no plan (DESIGN.md §13).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/autoencoder.h"
#include "core/diffusion.h"
#include "nn/plan/cache.h"
#include "support/status.h"

namespace dcdiff::core {

// The compiled executor of one size group: its UNet-step and decoder plans,
// both running in the calling thread's arena. Planned output equals the
// eager modules' byte for byte.
class GroupPlans {
 public:
  // Fetches the plans for `n` images of latent size h x w sampled on
  // n * ensemble rows from `cache` (compiling on a miss; conv weights
  // resolve through `packs`): the step plan for the rows and the one-image
  // decoder plan. Grows the calling thread's arena to the larger of the
  // two. A build or arena failure is a typed Status and leaves *out empty;
  // the caller then runs the group eager.
  static Status open(nn::plan::PlanCache& cache, nn::PackCache& packs,
                     const UNet& unet, const Autoencoder& ae, int n,
                     int ensemble, int h, int w,
                     std::optional<GroupPlans>* out);

  // UNet::forward of the rows `z_t`, row i at timestep t[i]; s/b are the
  // rows' FreeU factors and must be defined (ones for s = b = 1).
  nn::Tensor denoise(const nn::Tensor& z_t, const std::vector<int>& t,
                     const ControlModule::Features& ctrl, const nn::Tensor& s,
                     const nn::Tensor& b);
  // Autoencoder::decode of the n latents `z0`, one image per decoder run.
  nn::Tensor decode(const nn::Tensor& z0, const ACFeatures& ac);

 private:
  GroupPlans(std::shared_ptr<const nn::plan::Plan> step,
             std::shared_ptr<const nn::plan::Plan> decoder, int temb_dim)
      : step_(std::move(step)), decoder_(std::move(decoder)),
        temb_dim_(temb_dim) {}

  std::shared_ptr<const nn::plan::Plan> step_, decoder_;
  int temb_dim_;
};

}  // namespace dcdiff::core

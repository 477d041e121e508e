// Compile-once reconstruction plans (see nn/plan/): the two networks a
// reconstruction runs, each captured once per shape and executed in the
// calling thread's liveness-planned arena.
//
// * The UNet-step plan: one denoising forward, keyed by (rows, latent
//   h x w). It takes what UNet::forward takes: each row's timestep (as its
//   sinusoidal embedding) and FreeU factors (ones when FMPP is off), so
//   rows at different steps can share a run and requests with and without
//   FMPP share plans. The running batch (core/running_batch.h) runs it once
//   per step over its running rows, so no plan key holds the step count,
//   the ensemble size or the prediction kind, and requests may join and
//   leave between steps.
// * The decoder plan: the stage-1 decoder on one image, keyed by latent
//   h x w alone. A request's decode runs it on its own image; every kernel
//   is row-invariant, so that equals the batched eager decode byte for
//   byte, and the thread's arena is sized by the step plan.
//
// The conditioner (control module, AC encoder, FMPP) runs once per image,
// at admission, and is the cheapest stage, so it has no plan (DESIGN.md
// §13).
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

  // UNet::forward of the plan's n * ensemble rows at `z` into `pred`, row i
  // at timestep t[i]: c1/c2 are the rows' control features, s/b their
  // FreeU factors (ones for s = b = 1), each a dense row-major buffer.
  void denoise(const float* z, const std::vector<int>& t, const float* c1,
               const float* c2, const float* s, const float* b, float* pred);
  // The same on tensors; s/b must be defined.
  nn::Tensor denoise(const nn::Tensor& z_t, const std::vector<int>& t,
                     const ControlModule::Features& ctrl, const nn::Tensor& s,
                     const nn::Tensor& b);
  // Autoencoder::decode of one image's latent `z0` and AC features
  // (`quarter`, `half`) into `out`, dense row-major buffers.
  void decode(const float* z0, const float* quarter, const float* half,
              float* out);

 private:
  GroupPlans(std::shared_ptr<const nn::plan::Plan> step,
             std::shared_ptr<const nn::plan::Plan> decoder, int temb_dim)
      : step_(std::move(step)), decoder_(std::move(decoder)),
        temb_dim_(temb_dim) {}

  std::shared_ptr<const nn::plan::Plan> step_, decoder_;
  int temb_dim_;
};

}  // namespace dcdiff::core

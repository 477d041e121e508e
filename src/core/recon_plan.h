// Compile-once reconstruction plans (see nn/plan/): the entire receiver
// forward — control module, AC encoder, FMPP, the unrolled DDIM chain and
// the decoder — captured as one static operator graph per group signature
// (batch, ensemble, steps, padded size, fmpp, prediction) and executed out
// of a single liveness-planned arena. Compiling happens once per signature
// per model replica; steady-state execution allocates nothing.
#pragma once

#include <memory>
#include <string>

#include "core/autoencoder.h"
#include "core/diffusion.h"
#include "core/fmpp.h"
#include "nn/plan/cache.h"
#include "support/status.h"

namespace dcdiff::core {

// Shape/config signature of one reconstruction group. Calls with equal keys
// share a compiled plan (weights are bound per ReconPlanner, which is per
// model replica).
struct ReconPlanKey {
  int n = 1;           // images in the group
  int ensemble = 1;    // noise seeds averaged per image
  int steps = 1;       // DDIM steps
  int ph = 0, pw = 0;  // padded tilde size (multiples of 8)
  bool use_fmpp = true;
  Prediction prediction = Prediction::kX0;

  std::string str() const;
};

// Per-replica plan registry for DCDiffModel::reconstruct*. Wraps a
// nn::plan::PlanCache whose capture function assembles the receiver graph.
// Thread-safe (the underlying cache is).
class ReconPlanner {
 public:
  // The compiled plan for `key` (cached; compiled on first use). Build
  // failures surface as a typed Status — callers fall back to the eager
  // path. Plan inputs: 0 = tilde batch (n,3,ph,pw); 1 = noise rows
  // (n*ensemble, z_channels, ph/4, pw/4), each image's ensemble members
  // adjacent. Output 0: xhat (n,3,ph,pw).
  Status get(const ReconPlanKey& key, const ControlModule& control,
             const Autoencoder& ae, const FMPP& fmpp, const UNet& unet,
             const DiffusionSchedule& sched, nn::PackCache& packs,
             std::shared_ptr<const nn::plan::Plan>* out);

  nn::plan::PlanCache::ArenaLease arena_for(const nn::plan::Plan& p) {
    return cache_.arena_for(p);
  }
  size_t size() const { return cache_.size(); }

 private:
  nn::plan::PlanCache cache_;
};

}  // namespace dcdiff::core

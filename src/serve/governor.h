// Queue-depth-driven DDIM step scheduler for anytime serving.
//
// Under load the cheapest unit of work to shed is a sampling step: every
// DDIM step costs one UNet forward over the whole batch, and the x0-
// parameterized sampler produces a usable z0 checkpoint at every step, so
// fewer steps degrade quality smoothly instead of failing requests. The
// governor maps the server's total queue depth to a per-request step count:
// full_steps when idle, shaving one step per `depth_per_step` queued
// requests, never below the `min_steps` quality floor.
//
// Policy knobs live in ServerConfig (governor_depth_per_step, min_steps);
// the governor itself is pure and deterministic so tests can pin its
// behaviour. The server applies it to each QosTier::kLatency request when
// it joins a worker's running batch, at the queue depth of that boundary —
// kQuality requests always get the full step count.
#pragma once

#include <cstddef>

namespace dcdiff::serve {

class StepGovernor {
 public:
  struct Config {
    int full_steps = 0;      // steps of an ungoverned batch (> 0)
    int min_steps = 1;       // quality floor (clamped to [1, full_steps])
    int depth_per_step = 0;  // queued requests per step shed; <= 0 disables
  };

  explicit StepGovernor(const Config& cfg);

  // Step target of a request given total queued requests. Monotone
  // non-increasing in depth; equals full_steps when disabled or idle.
  int plan_steps(size_t queue_depth) const;

  bool enabled() const { return cfg_.depth_per_step > 0; }
  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
};

}  // namespace dcdiff::serve

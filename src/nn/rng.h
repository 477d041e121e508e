// Deterministic random number generator shared by the NN library and the
// synthetic dataset generators. All stochastic code in this repository draws
// from an explicitly-seeded Rng so every experiment is reproducible.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace dcdiff {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform in [lo, hi).
  float uniform(float lo = 0.0f, float hi = 1.0f) {
    std::uniform_real_distribution<float> d(lo, hi);
    return d(engine_);
  }

  // Standard normal (Box-Muller via std::normal_distribution).
  float normal(float mean = 0.0f, float stddev = 1.0f) {
    std::normal_distribution<float> d(mean, stddev);
    return d(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return d(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dcdiff

// Compiled inference plan: a fused, memory-planned operator graph with every
// weight reference resolved (raw pointers + PackedA panels) at build time.
//
// A Plan is immutable after construction and holds no mutable execution
// state, so one plan may be shared across threads; each concurrent run()
// needs its own ExecArena (PlanCache pools them per size). A run allocates
// nothing.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/gemm.h"
#include "nn/plan/ir.h"
#include "nn/plan/passes.h"

namespace dcdiff::nn {
class PackCache;
}

namespace dcdiff::nn::plan {

// The single backing buffer every intermediate lives in.
class ExecArena {
 public:
  explicit ExecArena(size_t floats)
      : data_(new float[std::max<size_t>(floats, 1)]), floats_(floats) {}
  float* data() { return data_.get(); }
  size_t floats() const { return floats_; }

 private:
  std::unique_ptr<float[]> data_;
  size_t floats_;
};

class Plan {
 public:
  // Compiles `g`: fusion, liveness arena planning, weight resolution. Conv
  // weights resolve to `packs`' panels, the ones the eager conv2d uses, so
  // a plan packs nothing of its own; `packs` must outlive the plan. A plan
  // bakes in the weights it was built from, so every conv weight must be
  // frozen: one that still requires grad is a std::invalid_argument, as is
  // a malformed graph (PlanCache::get_or_build converts either into a typed
  // Status).
  Plan(Graph&& g, PackCache& packs);

  size_t arena_floats() const { return arena_floats_; }
  int num_inputs() const { return graph_.num_inputs; }
  size_t input_numel(int i) const;
  int num_outputs() const { return static_cast<int>(graph_.outputs.size()); }
  const std::vector<int>& output_shape(int i) const;
  size_t output_numel(int i) const;
  size_t num_ops() const { return graph_.ops.size(); }
  const FusionStats& fusion_stats() const { return stats_; }

  // Executes the graph. inputs[i] must hold input_numel(i) floats; on
  // return (*outputs)[i] points at output i inside `arena`, valid until the
  // arena is reused. Thread-safe given distinct arenas.
  void run(ExecArena& arena, const std::vector<const float*>& inputs,
           std::vector<const float*>* outputs) const;

 private:
  const float* resolve(TensorId id, float* arena,
                       const std::vector<const float*>& inputs) const;

  Graph graph_;
  FusionStats stats_;
  size_t arena_floats_ = 0;
  // Borrowed PackCache panels, parallel to graph_.ops (null for non-conv).
  std::vector<const PackedA*> conv_panels_;
};

}  // namespace dcdiff::nn::plan

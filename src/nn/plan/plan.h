// Compiled inference plan: a fused, memory-planned operator graph with every
// weight reference resolved (raw pointers + PackedA panels) at build time.
//
// A Plan is immutable after construction and holds no mutable execution
// state, so one plan may be shared across threads. Every run executes in
// the calling thread's arena: one buffer per thread, grown to the largest
// plan that thread has run and reused by every later run, so a run
// allocates nothing once its thread has run a plan of that size (until the
// thread releases it, as an idle serving worker does).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/gemm.h"
#include "nn/plan/ir.h"
#include "nn/plan/passes.h"

namespace dcdiff::nn {
class PackCache;
}

namespace dcdiff::nn::plan {

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
  const std::vector<int>& output_shape(int i) const;
  size_t output_numel(int i) const;
  size_t num_ops() const { return graph_.ops.size(); }
  const FusionStats& fusion_stats() const { return stats_; }

  // Executes the graph in the calling thread's arena, growing it first if
  // this plan needs more than the thread has run so far. inputs[i] must hold
  // the floats of the shape its GraphBuilder::input call gave; on return
  // (*outputs)[i] points at output i inside that arena, valid until the
  // thread's next run. Thread-safe.
  void run(const std::vector<const float*>& inputs,
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

// Grows the calling thread's arena to at least `floats` floats, so that the
// thread's runs of plans that size allocate nothing. Throws std::bad_alloc
// when the allocation fails; the fault site nn.plan.arena_fail fails it on
// every call, before the size test (core::RunningBatch then steps that
// request count eager).
void reserve_thread_arena(size_t floats);
// Frees the calling thread's arena; its next run grows one again. A serving
// worker calls it when it goes idle, so an idle worker holds no arena.
void release_thread_arena();

}  // namespace dcdiff::nn::plan

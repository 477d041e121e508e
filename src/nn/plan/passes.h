// Compile passes over a captured Graph: operator fusion and liveness-based
// arena planning. Both run once at plan-build time (Plan's constructor).
#pragma once

#include <cstddef>

#include "nn/plan/ir.h"

namespace dcdiff::nn::plan {

struct FusionStats {
  int conv_gn = 0;      // conv + groupnorm merged (epilogue in-place)
  int conv_act = 0;     // conv (or conv+gn) + activation epilogue
  int gn_act = 0;       // standalone groupnorm + activation epilogue
  int linear_act = 0;   // linear + activation epilogue
  int ops_before = 0;
  int ops_after = 0;
};

// Merges producer/sole-consumer chains whose intermediate is not a graph
// output: conv2d -> group_norm [-> activation], conv2d -> activation,
// group_norm -> activation, linear -> activation (SiLU or tanh). The merged
// op writes the chain's final tensor; skipped intermediates are left
// dangling (no producer, no consumer) and take no arena space. Fusion never
// reassociates arithmetic — a fused group norm runs in place over the conv's
// output, and a fused activation is applied by the producing kernel to each
// range it wrote, with the standalone kernel's expression — so fused
// execution stays bit-identical to eager.
FusionStats fuse_graph(Graph* g);

// Assigns every live kArena tensor an offset into one shared arena via
// interval liveness + best-fit free-list reuse.
// Graph outputs are pinned live to the end. Returns the arena size in
// floats; offsets are 64-byte aligned.
size_t plan_memory(Graph* g);

}  // namespace dcdiff::nn::plan

// Forward declarations for the static inference-plan subsystem, so module
// headers (nn/modules.h, core/*.h) can declare graph-capture methods and
// hold plan caches without pulling in the full plan IR.
#pragma once

namespace dcdiff::nn::plan {

class GraphBuilder;
class Plan;
class PlanCache;

// A tensor in a plan graph is identified by its index into Graph::tensors.
using TensorId = int;
inline constexpr TensorId kNoTensor = -1;

}  // namespace dcdiff::nn::plan

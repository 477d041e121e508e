// GraphBuilder: records a module forward pass as a static operator graph.
//
// Capture methods (Conv2d::capture, UNet::capture, ...) call the op-emitting
// methods below exactly where the eager forward would call the nn/ops.cpp
// functions; each op runs the same shape rule (nn/kernels.h) its eager
// function does (throwing std::invalid_argument on mismatch — PlanCache
// turns that into a typed Status) and records the rule's output shape.
#pragma once

#include <unordered_map>
#include <vector>

#include "nn/plan/ir.h"

namespace dcdiff::nn::plan {

class GraphBuilder {
 public:
  explicit GraphBuilder(Graph* g) : g_(g) {}

  // A caller-provided input buffer (ordinal = call order).
  TensorId input(std::vector<int> shape);
  // A value baked into the graph (copied now).
  TensorId constant(const Tensor& t);
  // A live model weight; deduplicated by node identity, kept alive by the
  // graph. Undefined tensors (optional biases) map to kNoTensor.
  TensorId param(const Tensor& t);
  void mark_output(TensorId id);

  // Trace-span boundaries: ops emitted between begin_span(name) and the
  // matching end_span() show up as one `name` span when the compiled plan
  // runs with tracing enabled (obs/trace.h). Spans nest; `name` must be a
  // string literal. No effect on execution or numerics.
  void begin_span(const char* name);
  void end_span();

  const std::vector<int>& shape(TensorId id) const;

  // --- ops (mirror the nn/ops.cpp eager API) ---
  TensorId conv2d(TensorId x, const Tensor& w, const Tensor& b, int stride,
                  int pad);
  TensorId linear(TensorId x, const Tensor& w, const Tensor& b);
  TensorId group_norm(TensorId x, const Tensor& gamma, const Tensor& beta,
                      int groups, float eps = 1e-5f);
  TensorId silu(TensorId a);
  TensorId relu(TensorId a);
  TensorId tanh(TensorId a);
  TensorId sigmoid(TensorId a);
  TensorId clamp(TensorId a, float lo, float hi);
  TensorId add(TensorId a, TensorId b);
  TensorId sub(TensorId a, TensorId b);
  TensorId scale(TensorId a, float s);
  TensorId add_sample_channel_bias(TensorId x, TensorId b);
  TensorId mul_per_sample(TensorId x, TensorId s);
  TensorId concat_channels(TensorId a, TensorId b);
  TensorId slice_channels(TensorId a, int c0, int c1);
  TensorId reshape(TensorId a, std::vector<int> new_shape);
  TensorId avg_pool2d(TensorId x, int k);
  TensorId global_avg_pool(TensorId x);
  TensorId upsample2x(TensorId x);
  TensorId repeat_batch(TensorId x, int k);
  TensorId ensemble_mean(TensorId x, int n, int ensemble);

 private:
  TensorId add_tensor(std::vector<int> shape, Storage storage, int index);
  TensorId emit(Op op, std::vector<int> out_shape);

  Graph* g_;
  std::unordered_map<const TensorNode*, TensorId> param_ids_;
};

}  // namespace dcdiff::nn::plan

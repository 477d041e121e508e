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
  // A live model weight; deduplicated by node identity, kept alive by the
  // graph. Undefined tensors (optional biases) map to kNoTensor.
  TensorId param(const Tensor& t);
  void mark_output(TensorId id);

  const std::vector<int>& shape(TensorId id) const;

  // --- ops (mirror the nn/ops.cpp eager API) ---
  TensorId conv2d(TensorId x, const Tensor& w, const Tensor& b, int stride,
                  int pad);
  TensorId linear(TensorId x, const Tensor& w, const Tensor& b);
  TensorId group_norm(TensorId x, const Tensor& gamma, const Tensor& beta,
                      int groups, float eps = 1e-5f);
  TensorId silu(TensorId a);
  TensorId tanh(TensorId a);
  TensorId add(TensorId a, TensorId b);
  TensorId add_sample_channel_bias(TensorId x, TensorId b);
  TensorId mul_per_sample(TensorId x, TensorId s);
  TensorId concat_channels(TensorId a, TensorId b);
  TensorId upsample2x(TensorId x);

 private:
  TensorId add_tensor(std::vector<int> shape, Storage storage, int index);
  TensorId emit(Op op, std::vector<int> out_shape);

  Graph* g_;
  std::unordered_map<const TensorNode*, TensorId> param_ids_;
};

}  // namespace dcdiff::nn::plan

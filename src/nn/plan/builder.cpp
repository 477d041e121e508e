#include "nn/plan/builder.h"

#include <utility>

#include "nn/kernels.h"

namespace dcdiff::nn::plan {

TensorId GraphBuilder::add_tensor(std::vector<int> shape, Storage storage,
                                  int index) {
  TensorInfo info;
  info.numel = shape_numel(shape);
  info.shape = std::move(shape);
  info.storage = storage;
  info.index = index;
  g_->tensors.push_back(std::move(info));
  return static_cast<TensorId>(g_->tensors.size() - 1);
}

TensorId GraphBuilder::input(std::vector<int> shape) {
  return add_tensor(std::move(shape), Storage::kInput, g_->num_inputs++);
}

TensorId GraphBuilder::param(const Tensor& t) {
  if (!t.defined()) return kNoTensor;
  auto it = param_ids_.find(t.node().get());
  if (it != param_ids_.end()) return it->second;
  g_->params.push_back(t);
  const TensorId id = add_tensor(t.shape(), Storage::kParam,
                                 static_cast<int>(g_->params.size() - 1));
  param_ids_.emplace(t.node().get(), id);
  return id;
}

void GraphBuilder::mark_output(TensorId id) { g_->outputs.push_back(id); }

const std::vector<int>& GraphBuilder::shape(TensorId id) const {
  return g_->tensors[static_cast<size_t>(id)].shape;
}

TensorId GraphBuilder::emit(Op op, std::vector<int> out_shape) {
  op.out = add_tensor(std::move(out_shape), Storage::kArena, -1);
  const TensorId out = op.out;
  g_->ops.push_back(std::move(op));
  return out;
}

TensorId GraphBuilder::conv2d(TensorId x, const Tensor& w, const Tensor& b,
                              int stride, int pad) {
  Shape out = conv2d_shape(shape(x), w, b, stride, pad);
  Op op{.kind = OpKind::kConv2d, .in = {x, param(w)}, .i0 = stride,
        .i1 = pad, .i2 = b.defined() ? 1 : 0};
  if (b.defined()) op.in.push_back(param(b));
  return emit(std::move(op), std::move(out));
}

TensorId GraphBuilder::linear(TensorId x, const Tensor& w, const Tensor& b) {
  Shape out = linear_shape(shape(x), w, b);
  Op op{.kind = OpKind::kLinear, .in = {x, param(w)},
        .i2 = b.defined() ? 1 : 0};
  if (b.defined()) op.in.push_back(param(b));
  return emit(std::move(op), std::move(out));
}

TensorId GraphBuilder::group_norm(TensorId x, const Tensor& gamma,
                                  const Tensor& beta, int groups, float eps) {
  Shape out = group_norm_shape(shape(x), gamma, beta, groups);
  return emit({.kind = OpKind::kGroupNorm,
               .in = {x, param(gamma), param(beta)},
               .i0 = groups,
               .f0 = eps},
              std::move(out));
}

TensorId GraphBuilder::silu(TensorId a) {
  return emit({.kind = OpKind::kSiLU, .in = {a}}, shape(a));
}

TensorId GraphBuilder::tanh(TensorId a) {
  return emit({.kind = OpKind::kTanh, .in = {a}}, shape(a));
}

TensorId GraphBuilder::add(TensorId a, TensorId b) {
  check_same_shape(shape(a), shape(b), "add");
  return emit({.kind = OpKind::kAdd, .in = {a, b}}, shape(a));
}

TensorId GraphBuilder::add_sample_channel_bias(TensorId x, TensorId b) {
  return emit({.kind = OpKind::kAddSampleChannelBias, .in = {x, b}},
              sample_channel_bias_shape(shape(x), shape(b)));
}

TensorId GraphBuilder::mul_per_sample(TensorId x, TensorId s) {
  return emit({.kind = OpKind::kMulPerSample, .in = {x, s}},
              mul_per_sample_shape(shape(x), shape(s)));
}

TensorId GraphBuilder::concat_channels(TensorId a, TensorId b) {
  return emit({.kind = OpKind::kConcatChannels, .in = {a, b}},
              concat_channels_shape(shape(a), shape(b)));
}

TensorId GraphBuilder::upsample2x(TensorId x) {
  return emit({.kind = OpKind::kUpsample2x, .in = {x}},
              upsample2x_shape(shape(x)));
}

}  // namespace dcdiff::nn::plan

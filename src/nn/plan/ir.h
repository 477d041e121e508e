// Static inference-plan IR: a flat SSA operator graph over tensor ids.
//
// A Graph is captured once per (model, shape) combination by the capture
// methods on the nn/core modules (see GraphBuilder), then compiled into a
// Plan: a fusion pass merges adjacent conv/groupnorm/activation ops, a
// liveness pass assigns every intermediate a slice of one preplanned arena,
// and weight references are resolved to raw pointers (and PackedA panels)
// up front. Executing the plan then touches no allocator, no autograd tape,
// and no shape logic.
//
// Every op executes the nn/kernels.h kernel its eager op in nn/ops.cpp
// runs, group-norm reduction included, and every conv the PackCache panels
// the eager conv2d uses. Fusion only merges memory passes: a fused
// group norm is k_group_norm run in place over the conv's output, and a
// fused activation is applied by the producing kernel inside the parallel
// task that wrote each range, with the standalone activation's per-element
// expression; never reassociated math. So planned == eager byte for byte,
// which the tests assert exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/kernels.h"
#include "nn/plan/fwd.h"
#include "nn/tensor.h"

namespace dcdiff::nn::plan {

// Where a tensor's storage lives at execution time.
enum class Storage : uint8_t {
  kInput,  // caller-provided buffer, by input ordinal
  kParam,  // a live model weight (Graph::params keeps the node alive)
  kArena,  // intermediate: offset into the plan arena (liveness-assigned)
};

struct TensorInfo {
  std::vector<int> shape;
  size_t numel = 0;
  Storage storage = Storage::kArena;
  // kInput: input ordinal; kParam: params index.
  int index = -1;
  // kArena: offset in floats, assigned by plan_memory().
  size_t offset = 0;
};

// The 10 ops of the UNet step and the stage-1 decoder. Per-row data (the
// timestep embedding, the FreeU factors) enters as graph inputs with one
// row per sample, so no op repeats rows.
enum class OpKind : uint8_t {
  kConv2d,         // in: x, w[, b][, gamma, beta when fused_gn]; i0=stride,
                   // i1=pad, i2=has_bias; fused_gn: i3=groups, f0=eps
  kLinear,         // in: x, w[, b]; i2=has_bias
  kGroupNorm,      // in: x, gamma, beta; i0=groups, f0=eps
  kSiLU,
  kTanh,
  kAdd,
  kAddSampleChannelBias,  // in: x (N,C,H,W), b (N,C)
  kMulPerSample,   // in: x, s (N)
  kConcatChannels,
  kUpsample2x,
};

struct Op {
  OpKind kind;
  // Fusion only (kConv2d, kGroupNorm, kLinear): the activation the kernel
  // applies to its own output.
  Act act = Act::kNone;
  bool fused_gn = false;  // kConv2d only: group-norm epilogue before `act`
  std::vector<TensorId> in;
  TensorId out = kNoTensor;
  int i0 = 0, i1 = 0, i2 = 0, i3 = 0;
  float f0 = 0.0f;
};

struct Graph {
  std::vector<TensorInfo> tensors;
  std::vector<Op> ops;
  std::vector<TensorId> outputs;
  // Keep-alive handles for kParam tensors; TensorInfo::index indexes here.
  std::vector<Tensor> params;
  int num_inputs = 0;
};

}  // namespace dcdiff::nn::plan

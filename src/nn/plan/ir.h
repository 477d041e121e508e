// Static inference-plan IR: a flat SSA operator graph over tensor ids.
//
// A Graph is captured once per (model, shape, schedule) combination by the
// capture methods on the nn/core modules (see GraphBuilder), then compiled
// into a Plan: a fusion pass merges adjacent conv/groupnorm/activation ops,
// a liveness pass assigns every intermediate a slice of one preplanned
// arena, and weight references are resolved to raw pointers (and PackedA
// panels) up front. Executing the plan then touches no allocator, no
// autograd tape, and no shape logic — the steady state is two allocations
// per replica total: the plan itself and its arena.
//
// Every op executes the nn/kernels.h kernel its eager op in nn/ops.cpp
// runs, group-norm reduction included, and every conv the PackCache panels
// the eager conv2d uses. Fusion only merges memory passes: an epilogue runs
// its standalone kernel in place over the producer's output, never
// reassociated math. So planned == eager byte for byte, which the tests
// assert exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/plan/fwd.h"
#include "nn/tensor.h"

namespace dcdiff::nn::plan {

// Where a tensor's storage lives at execution time.
enum class Storage : uint8_t {
  kInput,     // caller-provided buffer, by input ordinal
  kConstant,  // baked into the graph at capture time (Graph::const_pool)
  kParam,     // a live model weight (Graph::params keeps the node alive)
  kArena,     // intermediate: offset into the plan arena (liveness-assigned)
};

struct TensorInfo {
  std::vector<int> shape;
  size_t numel = 0;
  Storage storage = Storage::kArena;
  // kInput: input ordinal; kConstant: const_pool index; kParam: params index.
  int index = -1;
  // kArena: offset in floats, assigned by plan_memory().
  size_t offset = 0;
};

enum class OpKind : uint8_t {
  kConv2d,         // in: x, w[, b][, gamma, beta when fused_gn]; i0=stride,
                   // i1=pad, i2=has_bias; fused_gn: i3=groups, f0=eps
  kLinear,         // in: x, w[, b]; i2=has_bias
  kGroupNorm,      // in: x, gamma, beta; i0=groups, f0=eps
  kSiLU,
  kRelu,
  kTanh,
  kSigmoid,
  kClamp,          // f0=lo, f1=hi
  kAdd,
  kSub,
  kScale,          // f0=s
  kAddSampleChannelBias,  // in: x (N,C,H,W), b (N,C)
  kMulPerSample,   // in: x, s (N)
  kConcatChannels,
  kSliceChannels,  // i0=c0, i1=c1
  kReshape,        // copy with new shape
  kAvgPool2d,      // i0=k (stride == k)
  kGlobalAvgPool,
  kUpsample2x,
  kRepeatBatch,    // i0=k; [s0 x k, s1 x k, ...]
  kEnsembleMean,   // i0=n, i1=e; row i = mean of rows [i*e, (i+1)*e)
};

// Elementwise epilogue applied in-place to an op's output (fusion only).
enum class PostOp : uint8_t { kNone, kSiLU, kRelu, kTanh, kSigmoid };

struct Op {
  OpKind kind;
  PostOp post = PostOp::kNone;
  bool fused_gn = false;  // kConv2d only: group-norm epilogue before `post`
  std::vector<TensorId> in;
  TensorId out = kNoTensor;
  int i0 = 0, i1 = 0, i2 = 0, i3 = 0;
  float f0 = 0.0f, f1 = 0.0f;
};

// Trace-span boundary: before executing op index `op`, a non-null `name`
// opens a span of that name; a null `name` closes the innermost open span.
// Emitted by GraphBuilder::begin_span/end_span so a compiled run shows the
// same per-phase spans (ddim_sample, ddim_step, ...) the eager path traces.
// `name` must have static storage duration (string literals).
struct SpanMark {
  int op = 0;
  const char* name = nullptr;
};

struct Graph {
  std::vector<TensorInfo> tensors;
  std::vector<Op> ops;
  std::vector<TensorId> outputs;
  std::vector<SpanMark> marks;  // non-decreasing in `op`
  // Values captured by GraphBuilder::constant (e.g. the timestep-embedding
  // MLP outputs, constant for a fixed DDIM schedule).
  std::vector<std::vector<float>> const_pool;
  // Keep-alive handles for kParam tensors; TensorInfo::index indexes here.
  std::vector<Tensor> params;
  int num_inputs = 0;
};

}  // namespace dcdiff::nn::plan

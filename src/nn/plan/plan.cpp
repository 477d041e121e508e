#include "nn/plan/plan.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include <memory>

#include "nn/packcache.h"
#include "nn/plan/kernels.h"
#include "obs/env.h"
#include "obs/trace.h"

namespace dcdiff::nn::plan {
namespace {

size_t inner_of(const TensorInfo& t) {
  size_t inner = 1;
  for (size_t d = 2; d < t.shape.size(); ++d) {
    inner *= static_cast<size_t>(t.shape[d]);
  }
  return inner;
}

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kLinear: return "linear";
    case OpKind::kGroupNorm: return "group_norm";
    case OpKind::kSiLU: return "silu";
    case OpKind::kRelu: return "relu";
    case OpKind::kTanh: return "tanh";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kClamp: return "clamp";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kScale: return "scale";
    case OpKind::kAddSampleChannelBias: return "add_sc_bias";
    case OpKind::kMulPerSample: return "mul_per_sample";
    case OpKind::kConcatChannels: return "concat";
    case OpKind::kSliceChannels: return "slice";
    case OpKind::kReshape: return "reshape";
    case OpKind::kAvgPool2d: return "avg_pool2d";
    case OpKind::kGlobalAvgPool: return "global_avg_pool";
    case OpKind::kUpsample2x: return "upsample2x";
    case OpKind::kRepeatBatch: return "repeat_batch";
    case OpKind::kEnsembleMean: return "ensemble_mean";
  }
  return "?";
}

// DCDIFF_PLAN_PROFILE=1: per-run table of wall time by op kind on stderr.
// Diagnostic only (adds two clock reads per op); read once per process.
bool profile_enabled() {
  static const bool on = obs::env_int("DCDIFF_PLAN_PROFILE", 0) != 0;
  return on;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Plan::Plan(Graph&& g, PackCache* packs) : graph_(std::move(g)) {
  if (graph_.outputs.empty()) {
    throw std::invalid_argument("plan: graph has no outputs");
  }
  stats_ = fuse_graph(&graph_);
  arena_floats_ = plan_memory(&graph_);
  conv_packs_.resize(graph_.ops.size());
  for (size_t i = 0; i < graph_.ops.size(); ++i) {
    const Op& op = graph_.ops[i];
    if (op.kind != OpKind::kConv2d) continue;
    const Tensor& w =
        graph_.params[static_cast<size_t>(
            graph_.tensors[static_cast<size_t>(op.in[1])].index)];
    const int f = w.dim(0);
    const int kdim = w.dim(1) * w.dim(2) * w.dim(3);
    ConvPack& cp = conv_packs_[i];
    if (packs != nullptr && !w.requires_grad()) {
      // Same process-lifetime panels the eager conv2d resolves, shared
      // across replicas; the cache's keep_alive pins the weight node.
      cp.panels = &packs->get(w, f, kdim);
    } else {
      cp.owned.emplace(false, f, kdim, w.value().data(), kdim);
      cp.panels = &*cp.owned;
    }
  }
}

size_t Plan::input_numel(int i) const {
  for (const TensorInfo& t : graph_.tensors) {
    if (t.storage == Storage::kInput && t.index == i) return t.numel;
  }
  throw std::out_of_range("plan: input index");
}

const std::vector<int>& Plan::output_shape(int i) const {
  return graph_.tensors[static_cast<size_t>(
      graph_.outputs[static_cast<size_t>(i)])].shape;
}

size_t Plan::output_numel(int i) const {
  return graph_.tensors[static_cast<size_t>(
      graph_.outputs[static_cast<size_t>(i)])].numel;
}

const float* Plan::resolve(TensorId id, float* arena,
                           const std::vector<const float*>& inputs) const {
  const TensorInfo& t = graph_.tensors[static_cast<size_t>(id)];
  switch (t.storage) {
    case Storage::kInput:
      return inputs[static_cast<size_t>(t.index)];
    case Storage::kConstant:
      return graph_.const_pool[static_cast<size_t>(t.index)].data();
    case Storage::kParam:
      return graph_.params[static_cast<size_t>(t.index)].value().data();
    case Storage::kArena:
      return arena + t.offset;
  }
  return nullptr;
}

void Plan::run(ExecArena& arena, const std::vector<const float*>& inputs,
               std::vector<const float*>* outputs) const {
  if (static_cast<int>(inputs.size()) != graph_.num_inputs) {
    throw std::invalid_argument("plan run: input count");
  }
  float* base = arena.data();
  std::map<std::string, std::pair<int, double>> prof;  // kind -> {count, us}
  // Captured span marks replay as real trace spans (ddim_sample, ddim_step,
  // ...) so a compiled run traces like the eager path. Zero cost when
  // tracing is off.
  const bool tracing = obs::trace_enabled() && !graph_.marks.empty();
  size_t mark_i = 0;
  std::vector<std::unique_ptr<obs::ScopedSpan>> span_stack;
  const auto replay_marks = [&](int upto) {
    while (mark_i < graph_.marks.size() && graph_.marks[mark_i].op <= upto) {
      const SpanMark& m = graph_.marks[mark_i++];
      if (m.name != nullptr) {
        span_stack.push_back(std::make_unique<obs::ScopedSpan>(m.name));
      } else if (!span_stack.empty()) {
        span_stack.pop_back();
      }
    }
  };
  for (size_t i = 0; i < graph_.ops.size(); ++i) {
    if (tracing) replay_marks(static_cast<int>(i));
    const Op& op = graph_.ops[i];
    const TensorInfo& ot = graph_.tensors[static_cast<size_t>(op.out)];
    float* out = base + ot.offset;
    const float* a = resolve(op.in[0], base, inputs);
    const double t0 = profile_enabled() ? now_us() : 0;
    switch (op.kind) {
      case OpKind::kConv2d: {
        const TensorInfo& xt = graph_.tensors[static_cast<size_t>(op.in[0])];
        const TensorInfo& wt = graph_.tensors[static_cast<size_t>(op.in[1])];
        const float* bias =
            op.i2 ? resolve(op.in[2], base, inputs) : nullptr;
        k_conv2d(a, xt.shape[0], xt.shape[1], xt.shape[2], xt.shape[3],
                 *conv_packs_[i].panels, wt.shape[2], wt.shape[3], op.i0,
                 op.i1, ot.shape[2], ot.shape[3], bias, out);
        if (op.fused_gn) {
          const size_t nin = op.in.size();
          const float* gamma = resolve(op.in[nin - 2], base, inputs);
          const float* beta = resolve(op.in[nin - 1], base, inputs);
          k_group_norm(out, gamma, beta, out, ot.shape[0], ot.shape[1],
                       op.i3, inner_of(ot), op.f0);
        }
        break;
      }
      case OpKind::kLinear: {
        const TensorInfo& xt = graph_.tensors[static_cast<size_t>(op.in[0])];
        const float* w = resolve(op.in[1], base, inputs);
        const float* bias =
            op.i2 ? resolve(op.in[2], base, inputs) : nullptr;
        k_linear(a, xt.shape[0], xt.shape[1], ot.shape[1], w, bias, out);
        break;
      }
      case OpKind::kGroupNorm: {
        const float* gamma = resolve(op.in[1], base, inputs);
        const float* beta = resolve(op.in[2], base, inputs);
        k_group_norm(a, gamma, beta, out, ot.shape[0], ot.shape[1], op.i0,
                     inner_of(ot), op.f0);
        break;
      }
      case OpKind::kSiLU:
        k_silu(a, out, ot.numel);
        break;
      case OpKind::kRelu:
        k_relu(a, out, ot.numel);
        break;
      case OpKind::kTanh:
        k_tanh(a, out, ot.numel);
        break;
      case OpKind::kSigmoid:
        k_sigmoid(a, out, ot.numel);
        break;
      case OpKind::kClamp:
        k_clamp(a, out, ot.numel, op.f0, op.f1);
        break;
      case OpKind::kAdd:
        k_add(a, resolve(op.in[1], base, inputs), out, ot.numel);
        break;
      case OpKind::kSub:
        k_sub(a, resolve(op.in[1], base, inputs), out, ot.numel);
        break;
      case OpKind::kScale:
        k_scale(a, out, ot.numel, op.f0);
        break;
      case OpKind::kAddSampleChannelBias:
        k_add_sample_channel_bias(a, resolve(op.in[1], base, inputs), out,
                                  ot.numel, inner_of(ot));
        break;
      case OpKind::kMulPerSample:
        k_mul_per_sample(a, resolve(op.in[1], base, inputs), out, ot.numel,
                         ot.numel / static_cast<size_t>(ot.shape[0]));
        break;
      case OpKind::kConcatChannels: {
        const TensorInfo& at = graph_.tensors[static_cast<size_t>(op.in[0])];
        const TensorInfo& bt = graph_.tensors[static_cast<size_t>(op.in[1])];
        const size_t inner = inner_of(at);
        k_concat_channels(a, resolve(op.in[1], base, inputs), out,
                          at.shape[0],
                          static_cast<size_t>(at.shape[1]) * inner,
                          static_cast<size_t>(bt.shape[1]) * inner);
        break;
      }
      case OpKind::kSliceChannels: {
        const TensorInfo& at = graph_.tensors[static_cast<size_t>(op.in[0])];
        const size_t inner = inner_of(at);
        k_slice_channels(a, out, at.shape[0],
                         static_cast<size_t>(at.shape[1]) * inner,
                         static_cast<size_t>(op.i1 - op.i0) * inner,
                         static_cast<size_t>(op.i0) * inner);
        break;
      }
      case OpKind::kReshape:
        k_copy(a, out, ot.numel);
        break;
      case OpKind::kAvgPool2d: {
        const TensorInfo& xt = graph_.tensors[static_cast<size_t>(op.in[0])];
        k_avg_pool2d(a, out, xt.shape[0], xt.shape[1], xt.shape[2],
                     xt.shape[3], op.i0);
        break;
      }
      case OpKind::kGlobalAvgPool: {
        const TensorInfo& xt = graph_.tensors[static_cast<size_t>(op.in[0])];
        k_global_avg_pool(a, out, xt.shape[0], xt.shape[1], xt.shape[2],
                          xt.shape[3]);
        break;
      }
      case OpKind::kUpsample2x: {
        const TensorInfo& xt = graph_.tensors[static_cast<size_t>(op.in[0])];
        k_upsample2x(a, out, xt.shape[0], xt.shape[1], xt.shape[2],
                     xt.shape[3]);
        break;
      }
      case OpKind::kRepeatBatch: {
        const TensorInfo& xt = graph_.tensors[static_cast<size_t>(op.in[0])];
        k_repeat_batch(a, out, xt.shape[0], op.i0,
                       xt.numel / static_cast<size_t>(xt.shape[0]));
        break;
      }
      case OpKind::kEnsembleMean:
        k_ensemble_mean(a, out, op.i0, op.i1,
                        ot.numel / static_cast<size_t>(ot.shape[0]));
        break;
    }
    apply_post_inplace(op.post, out, ot.numel);
    if (tracing && i + 1 == graph_.ops.size()) {
      replay_marks(static_cast<int>(graph_.ops.size()));
      span_stack.clear();  // close any span left open by capture
    }
    if (profile_enabled()) {
      auto& slot = prof[kind_name(op.kind)];
      slot.first++;
      slot.second += now_us() - t0;
    }
  }
  if (profile_enabled()) {
    double total = 0;
    for (const auto& kv : prof) total += kv.second.second;
    std::fprintf(stderr, "plan profile (%zu ops, %.1f us):\n",
                 graph_.ops.size(), total);
    for (const auto& kv : prof) {
      std::fprintf(stderr, "  %-16s x%-4d %8.1f us (%4.1f%%)\n",
                   kv.first.c_str(), kv.second.first, kv.second.second,
                   100.0 * kv.second.second / total);
    }
  }
  if (outputs) {
    outputs->clear();
    outputs->reserve(graph_.outputs.size());
    for (TensorId t : graph_.outputs) {
      outputs->push_back(resolve(t, base, inputs));
    }
  }
}

}  // namespace dcdiff::nn::plan

#include "nn/plan/plan.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/kernels.h"
#include "nn/packcache.h"
#include "obs/env.h"
#include "obs/metrics.h"
#include "testing/fault.h"

namespace dcdiff::nn::plan {
namespace {

size_t inner_of(const std::vector<int>& shape) {
  size_t inner = 1;
  for (size_t d = 2; d < shape.size(); ++d) {
    inner *= static_cast<size_t>(shape[d]);
  }
  return inner;
}

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kLinear: return "linear";
    case OpKind::kGroupNorm: return "group_norm";
    case OpKind::kSiLU: return "silu";
    case OpKind::kTanh: return "tanh";
    case OpKind::kAdd: return "add";
    case OpKind::kAddSampleChannelBias: return "add_sc_bias";
    case OpKind::kMulPerSample: return "mul_per_sample";
    case OpKind::kConcatChannels: return "concat";
    case OpKind::kUpsample2x: return "upsample2x";
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

// The calling thread's arena: every intermediate of a run lives here. It
// only grows (plan.arena_allocs counts growths), so a thread holds one
// buffer the size of the largest plan it has run since it last released
// it, freed when it exits.
struct ThreadArena {
  std::unique_ptr<float[]> data;
  size_t floats = 0;
};
thread_local ThreadArena t_arena;

float* thread_arena(size_t floats) {
  static obs::Counter& growths = obs::counter("plan.arena_allocs");
  if (floats > t_arena.floats) {
    // Free the smaller buffer first, so a growth never holds both.
    t_arena.data.reset();
    t_arena.floats = 0;
    t_arena.data = std::make_unique_for_overwrite<float[]>(floats);
    t_arena.floats = floats;
    growths.inc();
  }
  return t_arena.data.get();
}

}  // namespace

void reserve_thread_arena(size_t floats) {
  // Fault site: the arena fails to grow as an allocation would. Checked
  // before the size test, so it fires even on a thread whose arena is
  // already large enough.
  if (DCDIFF_FAULT_POINT("nn.plan.arena_fail")) throw std::bad_alloc();
  (void)thread_arena(floats);
}

void release_thread_arena() {
  t_arena.data.reset();
  t_arena.floats = 0;
}

Plan::Plan(Graph&& g, PackCache& packs) : graph_(std::move(g)) {
  if (graph_.outputs.empty()) {
    throw std::invalid_argument("plan: graph has no outputs");
  }
  stats_ = fuse_graph(&graph_);
  arena_floats_ = plan_memory(&graph_);
  conv_panels_.resize(graph_.ops.size(), nullptr);
  for (size_t i = 0; i < graph_.ops.size(); ++i) {
    const Op& op = graph_.ops[i];
    if (op.kind != OpKind::kConv2d) continue;
    const Tensor& w =
        graph_.params[static_cast<size_t>(
            graph_.tensors[static_cast<size_t>(op.in[1])].index)];
    if (w.requires_grad()) {
      throw std::invalid_argument("plan: conv weight still requires grad");
    }
    // The process-lifetime panels the eager conv2d resolves, shared across
    // replicas; the cache's keep_alive pins the weight node.
    conv_panels_[i] = &packs.get(w, w.dim(0), w.dim(1) * w.dim(2) * w.dim(3));
  }
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
    case Storage::kParam:
      return graph_.params[static_cast<size_t>(t.index)].value().data();
    case Storage::kArena:
      return arena + t.offset;
  }
  return nullptr;
}

void Plan::run(const std::vector<const float*>& inputs,
               std::vector<const float*>* outputs) const {
  if (static_cast<int>(inputs.size()) != graph_.num_inputs) {
    throw std::invalid_argument("plan run: input count");
  }
  float* base = thread_arena(arena_floats_);
  std::map<std::string, std::pair<int, double>> prof;  // kind -> {count, us}
  for (size_t i = 0; i < graph_.ops.size(); ++i) {
    const Op& op = graph_.ops[i];
    const TensorInfo& ot = graph_.tensors[static_cast<size_t>(op.out)];
    float* out = base + ot.offset;
    const float* a = resolve(op.in[0], base, inputs);
    // First input's shape: x of the conv/linear/upsample ops, a of concat.
    const std::vector<int>& xs =
        graph_.tensors[static_cast<size_t>(op.in[0])].shape;
    const double t0 = profile_enabled() ? now_us() : 0;
    switch (op.kind) {
      case OpKind::kConv2d: {
        const TensorInfo& wt = graph_.tensors[static_cast<size_t>(op.in[1])];
        const float* bias =
            op.i2 ? resolve(op.in[2], base, inputs) : nullptr;
        // The activation belongs to the last kernel that writes `out`.
        conv_panels_[i]->conv2d_forward(
            a, xs[0], xs[1], xs[2], xs[3], wt.shape[2], wt.shape[3], op.i0,
            op.i1, ot.shape[2], ot.shape[3], bias, out,
            op.fused_gn ? Act::kNone : op.act);
        if (op.fused_gn) {
          const size_t nin = op.in.size();
          const float* gamma = resolve(op.in[nin - 2], base, inputs);
          const float* beta = resolve(op.in[nin - 1], base, inputs);
          k_group_norm(out, gamma, beta, out, ot.shape[0], ot.shape[1],
                       op.i3, inner_of(ot.shape), op.f0, op.act);
        }
        break;
      }
      case OpKind::kLinear: {
        const float* w = resolve(op.in[1], base, inputs);
        const float* bias =
            op.i2 ? resolve(op.in[2], base, inputs) : nullptr;
        k_linear(a, xs[0], xs[1], ot.shape[1], w, bias, out, op.act);
        break;
      }
      case OpKind::kGroupNorm: {
        const float* gamma = resolve(op.in[1], base, inputs);
        const float* beta = resolve(op.in[2], base, inputs);
        k_group_norm(a, gamma, beta, out, ot.shape[0], ot.shape[1], op.i0,
                     inner_of(ot.shape), op.f0, op.act);
        break;
      }
      case OpKind::kSiLU:
        k_silu(a, out, ot.numel);
        break;
      case OpKind::kTanh:
        k_tanh(a, out, ot.numel);
        break;
      case OpKind::kAdd:
        k_add(a, resolve(op.in[1], base, inputs), out, ot.numel);
        break;
      case OpKind::kAddSampleChannelBias:
        k_add_sample_channel_bias(a, resolve(op.in[1], base, inputs), out,
                                  ot.numel, inner_of(ot.shape));
        break;
      case OpKind::kMulPerSample:
        k_mul_per_sample(a, resolve(op.in[1], base, inputs), out, ot.numel,
                         ot.numel / static_cast<size_t>(ot.shape[0]));
        break;
      case OpKind::kConcatChannels: {
        const TensorInfo& bt = graph_.tensors[static_cast<size_t>(op.in[1])];
        const size_t inner = inner_of(xs);
        k_concat_channels(a, resolve(op.in[1], base, inputs), out, xs[0],
                          static_cast<size_t>(xs[1]) * inner,
                          static_cast<size_t>(bt.shape[1]) * inner);
        break;
      }
      case OpKind::kUpsample2x:
        k_upsample2x(a, out, xs[0], xs[1], xs[2], xs[3]);
        break;
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

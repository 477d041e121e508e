#include "nn/plan/passes.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace dcdiff::nn::plan {
namespace {

bool is_activation(OpKind k) {
  return k == OpKind::kSiLU || k == OpKind::kTanh;
}

Act to_act(OpKind k) {
  return k == OpKind::kSiLU ? Act::kSiLU
         : k == OpKind::kTanh ? Act::kTanh
                              : Act::kNone;
}

}  // namespace

FusionStats fuse_graph(Graph* g) {
  FusionStats stats;
  stats.ops_before = static_cast<int>(g->ops.size());

  const size_t nt = g->tensors.size();
  std::vector<int> use_count(nt, 0);
  // Op index of the unique consumer, or -1 (none) / -2 (several).
  std::vector<int> consumer(nt, -1);
  for (size_t i = 0; i < g->ops.size(); ++i) {
    for (TensorId t : g->ops[i].in) {
      if (t < 0) continue;
      ++use_count[static_cast<size_t>(t)];
      consumer[static_cast<size_t>(t)] =
          consumer[static_cast<size_t>(t)] == -1 ? static_cast<int>(i) : -2;
    }
  }
  std::vector<char> is_output(nt, 0);
  for (TensorId t : g->outputs) is_output[static_cast<size_t>(t)] = 1;

  // A producer can absorb its consumer when the intermediate has exactly one
  // reader and is not a graph output. All absorbed consumers bring only
  // param inputs of their own (gamma/beta), so executing the merged op at
  // the producer's position preserves dataflow order.
  auto absorbable = [&](TensorId t) {
    return t >= 0 && use_count[static_cast<size_t>(t)] == 1 &&
           consumer[static_cast<size_t>(t)] >= 0 &&
           !is_output[static_cast<size_t>(t)];
  };

  std::vector<char> removed(g->ops.size(), 0);
  std::vector<Op> fused;
  fused.reserve(g->ops.size());
  for (size_t i = 0; i < g->ops.size(); ++i) {
    if (removed[i]) continue;
    Op op = g->ops[i];
    if (op.kind == OpKind::kConv2d && !op.fused_gn &&
        op.act == Act::kNone && absorbable(op.out)) {
      const size_t j = static_cast<size_t>(consumer[static_cast<size_t>(op.out)]);
      const Op& next = g->ops[j];
      if (next.kind == OpKind::kGroupNorm) {
        op.fused_gn = true;
        op.i3 = next.i0;           // groups
        op.f0 = next.f0;           // eps
        op.in.push_back(next.in[1]);  // gamma
        op.in.push_back(next.in[2]);  // beta
        op.out = next.out;
        removed[j] = 1;
        ++stats.conv_gn;
      } else if (is_activation(next.kind)) {
        op.act = to_act(next.kind);
        op.out = next.out;
        removed[j] = 1;
        ++stats.conv_act;
      }
    }
    if ((op.kind == OpKind::kConv2d || op.kind == OpKind::kGroupNorm ||
         op.kind == OpKind::kLinear) &&
        op.act == Act::kNone && absorbable(op.out)) {
      const size_t j = static_cast<size_t>(consumer[static_cast<size_t>(op.out)]);
      const Op& next = g->ops[j];
      if (is_activation(next.kind)) {
        op.act = to_act(next.kind);
        op.out = next.out;
        removed[j] = 1;
        if (op.kind == OpKind::kConv2d) {
          ++stats.conv_act;
        } else if (op.kind == OpKind::kGroupNorm) {
          ++stats.gn_act;
        } else {
          ++stats.linear_act;
        }
      }
    }
    fused.push_back(std::move(op));
  }
  g->ops = std::move(fused);
  stats.ops_after = static_cast<int>(g->ops.size());
  return stats;
}

size_t plan_memory(Graph* g) {
  const int nops = static_cast<int>(g->ops.size());
  const size_t nt = g->tensors.size();
  constexpr int kLiveToEnd = std::numeric_limits<int>::max();
  std::vector<int> def(nt, -1), last(nt, -1);
  for (int i = 0; i < nops; ++i) {
    const Op& op = g->ops[i];
    for (TensorId t : op.in) {
      if (t >= 0) last[static_cast<size_t>(t)] = i;
    }
    def[static_cast<size_t>(op.out)] = i;
    last[static_cast<size_t>(op.out)] =
        std::max(last[static_cast<size_t>(op.out)], i);
  }
  for (TensorId t : g->outputs) last[static_cast<size_t>(t)] = kLiveToEnd;

  // Best-fit free list with coalescing; offsets in floats, 16-float (64 B)
  // aligned so every tensor starts on a cache line.
  struct Hole {
    size_t off, size;
  };
  std::vector<Hole> holes;
  size_t high = 0;
  auto align16 = [](size_t v) { return (v + 15) & ~static_cast<size_t>(15); };
  auto alloc = [&](size_t floats) {
    floats = align16(std::max<size_t>(floats, 1));
    size_t best = holes.size();
    for (size_t h = 0; h < holes.size(); ++h) {
      if (holes[h].size >= floats &&
          (best == holes.size() || holes[h].size < holes[best].size)) {
        best = h;
      }
    }
    if (best < holes.size()) {
      const size_t off = holes[best].off;
      holes[best].off += floats;
      holes[best].size -= floats;
      if (holes[best].size == 0) {
        holes.erase(holes.begin() + static_cast<long>(best));
      }
      return off;
    }
    const size_t off = high;
    high += floats;
    return off;
  };
  auto free_block = [&](size_t off, size_t floats) {
    floats = align16(std::max<size_t>(floats, 1));
    auto it = std::lower_bound(
        holes.begin(), holes.end(), off,
        [](const Hole& h, size_t o) { return h.off < o; });
    it = holes.insert(it, Hole{off, floats});
    // Coalesce with the next hole, then the previous one.
    if (it + 1 != holes.end() && it->off + it->size == (it + 1)->off) {
      it->size += (it + 1)->size;
      holes.erase(it + 1);
    }
    if (it != holes.begin() && (it - 1)->off + (it - 1)->size == it->off) {
      (it - 1)->size += it->size;
      it = holes.erase(it) - 1;
    }
  };

  // Tensors to release after each op executes.
  std::vector<std::vector<TensorId>> expire(static_cast<size_t>(nops));
  for (size_t t = 0; t < nt; ++t) {
    if (g->tensors[t].storage != Storage::kArena) continue;
    if (def[t] < 0) continue;  // dangling (fused away): no storage
    if (last[t] != kLiveToEnd) {
      expire[static_cast<size_t>(last[t])].push_back(static_cast<TensorId>(t));
    }
  }

  for (int i = 0; i < nops; ++i) {
    const Op& op = g->ops[i];
    // Output first: it must not alias any input still live at this op.
    TensorInfo& out = g->tensors[static_cast<size_t>(op.out)];
    out.offset = alloc(out.numel);
    for (TensorId t : expire[static_cast<size_t>(i)]) {
      free_block(g->tensors[static_cast<size_t>(t)].offset,
                 g->tensors[static_cast<size_t>(t)].numel);
    }
  }
  return high;
}

}  // namespace dcdiff::nn::plan

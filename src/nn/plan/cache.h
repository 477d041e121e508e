// PlanCache: per-replica registry of compiled plans keyed by shape/config
// string, plus a pooled-arena checkout so steady-state planned forwards
// allocate nothing. The pool holds arenas only of sizes some cached plan
// uses, so evicting a plan also frees its idle arenas.
//
// Build failures surface as a typed Status — never an exception escaping
// into a serving worker. A capture that fails with kInvalidArgument (a
// module the plan cannot express, such as mid-block attention) is
// remembered per key, so it is captured and logged once. A compile failure
// (a conv weight that still trains, an empty graph) and a kInternal one
// (bad_alloc) are not, and retry.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/plan/plan.h"
#include "support/status.h"

namespace dcdiff::nn::plan {

class GraphBuilder;

class PlanCache {
 public:
  // Records the forward into the provided builder; mark_output included.
  using CaptureFn = std::function<void(GraphBuilder&)>;

  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // The cached plan for `key`, building on a miss by running `capture` into
  // a fresh Graph and compiling it (conv weights resolved through `packs`,
  // which must outlive the plan). Bounded FIFO: the oldest plan is evicted
  // past kMaxPlans (in-flight shared_ptr holders keep evicted plans alive;
  // remembered failures share the bound). Thread-safe; concurrent misses
  // for one key may build twice, last build wins.
  Status get_or_build(const std::string& key, const CaptureFn& capture,
                      PackCache& packs, std::shared_ptr<const Plan>* out);

  // RAII checkout of an arena sized for a plan. Returned to the per-size
  // pool on destruction (or freed, when no cached plan has that size any
  // more); `allocated()` says whether this checkout had to create the arena
  // (steady state: false).
  class ArenaLease {
   public:
    ArenaLease(PlanCache* cache, std::unique_ptr<ExecArena> arena,
               bool allocated)
        : cache_(cache), arena_(std::move(arena)), allocated_(allocated) {}
    ArenaLease(ArenaLease&& o) noexcept
        : cache_(o.cache_), arena_(std::move(o.arena_)),
          allocated_(o.allocated_) {
      o.cache_ = nullptr;
    }
    ArenaLease(const ArenaLease&) = delete;
    ArenaLease& operator=(const ArenaLease&) = delete;
    ~ArenaLease();

    ExecArena& arena() { return *arena_; }
    bool allocated() const { return allocated_; }

   private:
    PlanCache* cache_;
    std::unique_ptr<ExecArena> arena_;
    bool allocated_;
  };
  ArenaLease arena_for(const Plan& plan);

  size_t size() const;

  static constexpr size_t kMaxPlans = 64;

 private:
  friend class ArenaLease;
  void release_arena(std::unique_ptr<ExecArena> arena);
  // Whether a cached plan runs in arenas of `floats`; caller holds mu_.
  bool size_in_use(size_t floats) const;
  // Appends `key` to the FIFO and evicts past kMaxPlans; caller holds mu_.
  void admit_locked(const std::string& key);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Plan>> plans_;
  std::unordered_map<std::string, Status> failed_;  // remembered captures
  std::deque<std::string> order_;
  std::unordered_map<size_t, std::vector<std::unique_ptr<ExecArena>>>
      arena_pool_;
};

}  // namespace dcdiff::nn::plan

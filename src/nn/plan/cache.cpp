#include "nn/plan/cache.h"

#include <exception>
#include <utility>

#include <new>

#include "nn/plan/builder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "testing/fault.h"

namespace dcdiff::nn::plan {

Status PlanCache::get_or_build(const std::string& key,
                               const CaptureFn& capture, PackCache& packs,
                               std::shared_ptr<const Plan>* out) {
  static obs::Counter& hits = obs::counter("plan.cache_hits");
  static obs::Counter& builds = obs::counter("plan.builds");
  static obs::Counter& failures = obs::counter("plan.build_failures");
  static obs::Gauge& arena_bytes = obs::gauge("plan.arena_bytes");
  static obs::Gauge& fused = obs::gauge("plan.fused_ops");
  static obs::Histogram& build_seconds = obs::histogram("plan.build_seconds");
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      hits.inc();
      *out = it->second;
      return Status::ok();
    }
    auto failed = failed_.find(key);
    if (failed != failed_.end()) return failed->second;
  }
  // Build outside the lock: capture replays a whole module forward and
  // resolves its weights, which can take a moment.
  std::shared_ptr<const Plan> plan;
  obs::ScopedLatency build_timer(build_seconds);
  bool captured = false;
  try {
    Graph g;
    GraphBuilder builder(&g);
    capture(builder);
    captured = true;
    plan = std::make_shared<const Plan>(std::move(g), packs);
  } catch (const std::exception& e) {
    failures.inc();
    const bool invalid = dynamic_cast<const std::invalid_argument*>(&e);
    const Status st(
        invalid ? StatusCode::kInvalidArgument : StatusCode::kInternal,
        std::string("plan build: ") + e.what());
    DCDIFF_LOG_WARN("nn.plan", "build_failed",
                    {{"key", key}, {"error", st.to_string()}});
    // A module the capture cannot express fails the same way every time;
    // compiling can also fail on the weights' current state (a conv weight
    // that still trains), which a later call may find changed.
    if (invalid && !captured) {
      std::lock_guard<std::mutex> lock(mu_);
      if (failed_.emplace(key, st).second) admit_locked(key);
    }
    return st;
  }
  builds.inc();
  arena_bytes.set_max(
      static_cast<double>(plan->arena_floats() * sizeof(float)));
  fused.set_max(static_cast<double>(plan->fusion_stats().ops_before -
                                    plan->fusion_stats().ops_after));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = plans_.emplace(key, plan);
    if (!inserted) {
      it->second = plan;  // concurrent build of the same key: last wins
    } else {
      admit_locked(key);
    }
    // Idle arenas of a size no cached plan uses any more are freed.
    std::erase_if(arena_pool_,
                  [&](const auto& kv) { return !size_in_use(kv.first); });
  }
  *out = std::move(plan);
  return Status::ok();
}

void PlanCache::admit_locked(const std::string& key) {
  static obs::Counter& evictions = obs::counter("plan.evictions");
  order_.push_back(key);
  while (order_.size() > kMaxPlans) {
    plans_.erase(order_.front());
    failed_.erase(order_.front());
    order_.pop_front();
    evictions.inc();
  }
}

PlanCache::ArenaLease PlanCache::arena_for(const Plan& plan) {
  static obs::Counter& arena_allocs = obs::counter("plan.arena_allocs");
  // Fault site: arena acquisition fails as an allocation would. The caller
  // (core::GroupPlans::open) must convert this to Status::internal and run
  // the group eager — the request still completes, plan.eager_fallbacks
  // ticks. Sits before the pool lookup so repeated runs keep faulting
  // deterministically instead of being masked by a pooled arena.
  if (DCDIFF_FAULT_POINT("nn.plan.arena_fail")) throw std::bad_alloc();
  const size_t floats = plan.arena_floats();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = arena_pool_.find(floats);
    if (it != arena_pool_.end() && !it->second.empty()) {
      std::unique_ptr<ExecArena> arena = std::move(it->second.back());
      it->second.pop_back();
      return ArenaLease(this, std::move(arena), /*allocated=*/false);
    }
  }
  arena_allocs.inc();
  return ArenaLease(this, std::make_unique<ExecArena>(floats),
                    /*allocated=*/true);
}

PlanCache::ArenaLease::~ArenaLease() {
  if (cache_ && arena_) cache_->release_arena(std::move(arena_));
}

void PlanCache::release_arena(std::unique_ptr<ExecArena> arena) {
  std::lock_guard<std::mutex> lock(mu_);
  // An arena whose size no cached plan uses is freed instead of pooled.
  if (size_in_use(arena->floats())) {
    arena_pool_[arena->floats()].push_back(std::move(arena));
  }
}

bool PlanCache::size_in_use(size_t floats) const {
  for (const auto& [key, plan] : plans_) {
    if (plan->arena_floats() == floats) return true;
  }
  return false;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

}  // namespace dcdiff::nn::plan

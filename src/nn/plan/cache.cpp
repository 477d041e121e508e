#include "nn/plan/cache.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "nn/plan/builder.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace dcdiff::nn::plan {

Status PlanCache::get_or_build(const std::string& key,
                               const CaptureFn& capture, PackCache& packs,
                               std::shared_ptr<const Plan>* out) {
  static obs::Counter& hits = obs::counter("plan.cache_hits");
  static obs::Counter& builds = obs::counter("plan.builds");
  static obs::Counter& failures = obs::counter("plan.build_failures");
  static obs::Counter& evictions = obs::counter("plan.evictions");
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
  }
  // Build outside the lock: capture replays a whole module forward and
  // resolves its weights, which can take a moment.
  std::shared_ptr<const Plan> plan;
  obs::ScopedLatency build_timer(build_seconds);
  try {
    Graph g;
    GraphBuilder builder(&g);
    capture(builder);
    plan = std::make_shared<const Plan>(std::move(g), packs);
  } catch (const std::exception& e) {
    failures.inc();
    const Status st(dynamic_cast<const std::invalid_argument*>(&e)
                        ? StatusCode::kInvalidArgument
                        : StatusCode::kInternal,
                    std::string("plan build: ") + e.what());
    DCDIFF_LOG_WARN("nn.plan", "build_failed",
                    {{"key", key}, {"error", st.to_string()}});
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
      order_.push_back(key);
      while (order_.size() > kMaxPlans) {
        plans_.erase(order_.front());
        order_.pop_front();
        evictions.inc();
      }
    }
  }
  *out = std::move(plan);
  return Status::ok();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

}  // namespace dcdiff::nn::plan

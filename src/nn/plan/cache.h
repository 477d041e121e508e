// PlanCache: a model's registry of compiled plans keyed by shape string,
// shared by every thread that runs the model (every serving worker). It
// holds plans only; a plan is immutable and runs in the calling thread's
// arena (nn/plan/plan.h).
//
// Build failures surface as a typed Status — never an exception escaping
// into a serving worker: kInvalidArgument when the capture or compile
// throws std::invalid_argument (a conv weight that still trains, an empty
// graph), kInternal for anything else (bad_alloc). Nothing is remembered
// about a failure, so the next call for that key captures and compiles
// again.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

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
  // past kMaxPlans (in-flight shared_ptr holders keep evicted plans alive).
  // Thread-safe; concurrent misses for one key may build twice, last build
  // wins.
  Status get_or_build(const std::string& key, const CaptureFn& capture,
                      PackCache& packs, std::shared_ptr<const Plan>* out);

  size_t size() const;

  static constexpr size_t kMaxPlans = 64;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Plan>> plans_;
  std::deque<std::string> order_;
};

}  // namespace dcdiff::nn::plan

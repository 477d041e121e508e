#include "obs/stats.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <mutex>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace dcdiff::obs {

std::string stats_json(const std::string& extra_json) {
  std::string out = Registry::instance().to_json();
  if (extra_json.empty()) return out;
  // to_json() ends in "}}"; splice the server section before the final '}'.
  out.pop_back();
  out += ",\"server\":" + extra_json + "}";
  return out;
}

std::string prometheus_name(const std::string& name) {
  std::string out = "dcdiff_";
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out += ok ? ch : '_';
  }
  return out;
}

namespace {

// Prometheus floats: plain decimal; +Inf only appears in the `le` label.
std::string prom_number(double v) { return json_number(v); }

}  // namespace

std::string stats_prometheus(const std::string& extra) {
  const MetricsSnapshot snap = Registry::instance().snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string n = prometheus_name(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = prometheus_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + prom_number(value) + "\n";
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    const std::string n = prometheus_name(h.name);
    out += "# TYPE " + n + " histogram\n";
    uint64_t cum = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cum += h.bucket_counts[i];
      out += n + "_bucket{le=\"" + prom_number(h.bounds[i]) + "\"} " +
             std::to_string(cum) + "\n";
    }
    cum += h.bucket_counts.empty() ? 0 : h.bucket_counts.back();
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + "\n";
    out += n + "_sum " + prom_number(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  out += extra;
  return out;
}

// ----- SloTracker -----

namespace {

// One second of outcomes. Latencies bucket into slo_latency_bounds, and
// the slot keeps their min and max, so a window p99 is bucket_percentile
// exactly as Histogram::percentile reads it.
struct Slot {
  int64_t second = -1;  // slot owner (seconds since tracker construction)
  uint64_t completed = 0, ok = 0, missed = 0, errors = 0;
  double min_latency = std::numeric_limits<double>::infinity();
  double max_latency = 0;
  std::vector<uint64_t> buckets;  // bounds.size() + 1
};

}  // namespace

struct SloTracker::Impl {
  mutable std::mutex mu;
  std::chrono::steady_clock::time_point t0;
  std::vector<double> bounds;
  std::vector<Slot> slots;  // ring indexed by second % slots.size()
  int max_window;

  int64_t now_second() const {
    return std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  Slot& slot_for(int64_t second) {
    Slot& s = slots[static_cast<size_t>(second) % slots.size()];
    if (s.second != second) {
      s.second = second;
      s.completed = s.ok = s.missed = s.errors = 0;
      s.min_latency = std::numeric_limits<double>::infinity();
      s.max_latency = 0;
      std::fill(s.buckets.begin(), s.buckets.end(), 0);
    }
    return s;
  }
};

SloTracker::SloTracker(int max_window_seconds) : impl_(new Impl()) {
  impl_->t0 = std::chrono::steady_clock::now();
  impl_->max_window = std::max(1, max_window_seconds);
  impl_->bounds = Histogram::slo_latency_bounds();
  // One spare slot so the oldest in-window second is never the one being
  // overwritten by the current second.
  impl_->slots.resize(static_cast<size_t>(impl_->max_window) + 1);
  for (Slot& s : impl_->slots) {
    s.buckets.assign(impl_->bounds.size() + 1, 0);
  }
}

SloTracker::~SloTracker() { delete impl_; }

int SloTracker::max_window_seconds() const { return impl_->max_window; }

void SloTracker::record(double e2e_seconds, bool ok, bool deadline_missed,
                        bool error) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Slot& s = impl_->slot_for(impl_->now_second());
  s.completed++;
  if (ok) s.ok++;
  if (deadline_missed) s.missed++;
  if (error) s.errors++;
  s.min_latency = std::min(s.min_latency, e2e_seconds);
  s.max_latency = std::max(s.max_latency, e2e_seconds);
  const size_t idx = static_cast<size_t>(
      std::upper_bound(impl_->bounds.begin(), impl_->bounds.end(),
                       e2e_seconds) -
      impl_->bounds.begin());
  s.buckets[idx]++;
}

SloTracker::Window SloTracker::window(int seconds) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Window w;
  w.seconds = std::clamp(seconds, 1, impl_->max_window);
  const int64_t now = impl_->now_second();
  std::vector<uint64_t> merged(impl_->bounds.size() + 1, 0);
  double min_latency = std::numeric_limits<double>::infinity();
  double max_latency = 0;
  for (const Slot& s : impl_->slots) {
    if (s.second < 0 || s.second > now || s.second <= now - w.seconds) {
      continue;
    }
    w.completed += s.completed;
    w.ok += s.ok;
    w.deadline_missed += s.missed;
    w.errors += s.errors;
    min_latency = std::min(min_latency, s.min_latency);
    max_latency = std::max(max_latency, s.max_latency);
    for (size_t i = 0; i < merged.size(); ++i) merged[i] += s.buckets[i];
  }
  w.goodput = static_cast<double>(w.ok) / w.seconds;
  w.miss_rate = w.completed == 0
                    ? 0.0
                    : static_cast<double>(w.deadline_missed) /
                          static_cast<double>(w.completed);
  w.p99_seconds = bucket_percentile(impl_->bounds, merged, 0.99, min_latency,
                                    max_latency);
  return w;
}

std::string SloTracker::windows_json() const {
  const auto render = [](const Window& w) {
    return std::string("{\"seconds\":") + std::to_string(w.seconds) +
           ",\"completed\":" + std::to_string(w.completed) +
           ",\"ok\":" + std::to_string(w.ok) +
           ",\"deadline_missed\":" + std::to_string(w.deadline_missed) +
           ",\"errors\":" + std::to_string(w.errors) +
           ",\"goodput\":" + json_number(w.goodput) +
           ",\"miss_rate\":" + json_number(w.miss_rate) +
           ",\"p99_seconds\":" + json_number(w.p99_seconds) + "}";
  };
  const Window w10 = window(10);
  const Window w60 = window(60);
  return "{\"10s\":" + render(w10) + ",\"60s\":" + render(w60) + "}";
}

}  // namespace dcdiff::obs

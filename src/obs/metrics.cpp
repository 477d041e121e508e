#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>

#include "obs/env.h"
#include "obs/json.h"
#include "obs/log.h"

namespace dcdiff::obs {

// ----- Gauge -----

uint64_t Gauge::pack(double v) { return std::bit_cast<uint64_t>(v); }
double Gauge::unpack(uint64_t bits) { return std::bit_cast<double>(bits); }

void Gauge::set_max(double v) {
  uint64_t cur = bits_.load(std::memory_order_relaxed);
  while (unpack(cur) < v &&
         !bits_.compare_exchange_weak(cur, pack(v),
                                      std::memory_order_relaxed)) {
  }
}

// ----- Histogram -----

namespace {

double load_double(const std::atomic<uint64_t>& bits) {
  return std::bit_cast<double>(bits.load(std::memory_order_relaxed));
}

void accumulate_double(std::atomic<uint64_t>& bits, double delta) {
  uint64_t cur = bits.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t next = std::bit_cast<uint64_t>(
        std::bit_cast<double>(cur) + delta);
    if (bits.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

void update_min(std::atomic<uint64_t>& bits, double v) {
  uint64_t cur = bits.load(std::memory_order_relaxed);
  while (v < std::bit_cast<double>(cur) &&
         !bits.compare_exchange_weak(cur, std::bit_cast<uint64_t>(v),
                                     std::memory_order_relaxed)) {
  }
}

void update_max(std::atomic<uint64_t>& bits, double v) {
  uint64_t cur = bits.load(std::memory_order_relaxed);
  while (v > std::bit_cast<double>(cur) &&
         !bits.compare_exchange_weak(cur, std::bit_cast<uint64_t>(v),
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

double bucket_percentile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& counts, double p,
                         double min, double max) {
  double n = 0.0;
  for (const uint64_t c : counts) n += static_cast<double>(c);
  if (n == 0.0) return 0.0;
  const double target = std::clamp(p, 0.0, 1.0) * n;
  double cum = 0.0;
  double value = max;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c > 0 && cum + c >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : max;
      value = lo + (hi - lo) * (target - cum) / c;
      break;
    }
    cum += c;
  }
  // min > max only while a concurrent first observation is half recorded.
  return min <= max ? std::clamp(value, min, max) : value;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      min_bits_(std::bit_cast<uint64_t>(
          std::numeric_limits<double>::infinity())),
      max_bits_(std::bit_cast<uint64_t>(
          -std::numeric_limits<double>::infinity())) {
  if (bounds_.empty()) bounds_ = default_latency_bounds();
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

std::vector<double> Histogram::default_latency_bounds() {
  std::vector<double> b;
  // 1-2-5 decades from 1us to 60s: fine enough for 2-digit percentiles.
  for (const double decade : {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0}) {
    b.push_back(decade);
    b.push_back(2 * decade);
    b.push_back(5 * decade);
  }
  b.push_back(60.0);
  return b;
}

std::vector<double> Histogram::slo_latency_bounds() {
  std::vector<double> b;
  // See the header for the policy. 1-2-5 from 100us through 10s.
  for (const double decade : {1e-4, 1e-3, 1e-2, 1e-1, 1.0}) {
    b.push_back(decade);
    b.push_back(2 * decade);
    b.push_back(5 * decade);
  }
  b.push_back(10.0);
  b.push_back(30.0);
  return b;
}

void Histogram::observe(double v) {
  const size_t idx = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  accumulate_double(sum_bits_, v);
  update_min(min_bits_, v);
  update_max(max_bits_, v);
}

double Histogram::sum() const { return load_double(sum_bits_); }

uint64_t Histogram::bucket_count(size_t i) const {
  return i <= bounds_.size() ? buckets_[i].load(std::memory_order_relaxed)
                             : 0;
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : load_double(min_bits_);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : load_double(max_bits_);
}

double Histogram::percentile(double p) const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return bucket_percentile(bounds_, counts, p, min(), max());
}

void Histogram::reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(std::bit_cast<uint64_t>(0.0), std::memory_order_relaxed);
  min_bits_.store(
      std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
  max_bits_.store(
      std::bit_cast<uint64_t>(-std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
}

// ----- ScopedLatency -----

namespace {
uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ScopedLatency::ScopedLatency(Histogram& h) : h_(h), start_ns_(now_ns()) {}

ScopedLatency::~ScopedLatency() {
  h_.observe(static_cast<double>(now_ns() - start_ns_) * 1e-9);
}

// ----- Registry -----

struct Registry::Impl {
  mutable std::mutex mu;
  // std::map: stable references, deterministic JSON field order.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Registry() : impl_(new Impl()) {}

Registry& Registry::instance() {
  static Registry* r = [] {
    auto* reg = new Registry();
    if (!env_str("DCDIFF_METRICS_FILE").empty()) {
      std::atexit([] {
        const std::string path = env_str("DCDIFF_METRICS_FILE");
        if (path.empty()) return;
        std::ofstream f(path);
        if (!f) {
          log(LogLevel::kError, "obs.metrics", "write_failed",
              {{"path", path}});
          return;
        }
        f << Registry::instance().to_json() << '\n';
      });
    }
    return reg;
  }();
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : impl_->counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" +
           std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : impl_->gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + json_number(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : impl_->histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":{\"count\":" +
           std::to_string(h->count()) + ",\"sum\":" + json_number(h->sum()) +
           ",\"min\":" + json_number(h->min()) +
           ",\"max\":" + json_number(h->max()) +
           ",\"p50\":" + json_number(h->percentile(0.50)) +
           ",\"p90\":" + json_number(h->percentile(0.90)) +
           ",\"p99\":" + json_number(h->percentile(0.99)) + '}';
  }
  out += "}}";
  return out;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  MetricsSnapshot out;
  out.counters.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters) {
    out.counters.emplace_back(name, c->value());
  }
  out.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, g] : impl_->gauges) {
    out.gauges.emplace_back(name, g->value());
  }
  out.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    hs.p50 = h->percentile(0.50);
    hs.p90 = h->percentile(0.90);
    hs.p99 = h->percentile(0.99);
    hs.bounds = h->bounds();
    hs.bucket_counts.resize(hs.bounds.size() + 1);
    for (size_t i = 0; i <= hs.bounds.size(); ++i) {
      hs.bucket_counts[i] = h->bucket_count(i);
    }
    out.histograms.push_back(std::move(hs));
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
}

Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}

Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}

Histogram& histogram(const std::string& name,
                     std::vector<double> upper_bounds) {
  return Registry::instance().histogram(name, std::move(upper_bounds));
}

}  // namespace dcdiff::obs

// Thread-safe process-wide metrics: counters, gauges, and fixed-bucket
// latency histograms with percentile summaries (p50/p90/p99).
//
// Hot paths cache the reference once so the registry lookup (a mutex + map)
// happens a single time per site:
//
//   static obs::Counter& hits = obs::counter("nn.cache.hits");
//   hits.inc();
//
//   static obs::Histogram& h = obs::histogram("core.ddim.step_seconds");
//   { obs::ScopedLatency timer(h); ...work...; }
//
// `DCDIFF_METRICS_FILE`, when set, writes the registry snapshot as JSON at
// process exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dcdiff::obs {

class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
  double value() const {
    return unpack(bits_.load(std::memory_order_relaxed));
  }
  // Running maximum (e.g. peak queue depth).
  void set_max(double v);
  void reset() { set(0.0); }

 private:
  static uint64_t pack(double v);
  static double unpack(uint64_t bits);
  std::atomic<uint64_t> bits_{0x0ull};  // pack(0.0) == 0
};

// The p-quantile (p in [0, 1]) of samples counted into the buckets of
// `bounds`: counts[i] holds the samples below bounds[i] and at or above the
// bound before it, and counts.back() is the overflow bucket. Interpolates
// linearly inside the bucket holding the p * n-th sample, clamped to the
// samples' observed [min, max], so a quantile never lies outside the
// samples. 0 when there are none.
double bucket_percentile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& counts, double p,
                         double min, double max);

// Fixed upper-bound buckets plus an overflow bucket. Observations are
// lock-free (relaxed atomics); percentile estimates are bucket_percentile
// over the buckets, min and max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  // Exponential 1us..60s bounds, suited to wall-clock seconds.
  static std::vector<double> default_latency_bounds();

  // Bucket policy for serving-latency histograms (serve.e2e_seconds,
  // serve.queue_wait_seconds): 1-2-5 decades from 100us to 10s, then 30s
  // overflow. Rationale: the buckets must resolve the numbers SLOs are
  // written against — sub-millisecond queue waits under light load (a
  // request waits for at most one DDIM step boundary, so queue-wait
  // percentiles below 1ms are real signals, not noise), per-request model
  // time in the tens of ms to seconds, and multi-second stragglers up to
  // the 10s deadline horizon. The default 1us..60s bounds waste half their
  // resolution below any observable serving latency; these spend every
  // bucket inside the operating range, keeping interpolated p99 error
  // within the 1-2-5 step.
  static std::vector<double> slo_latency_bounds();

  void observe(double v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double min() const;
  double max() const;
  // p in [0, 1]; returns 0 when empty.
  double percentile(double p) const;
  const std::vector<double>& bounds() const { return bounds_; }
  // Raw count of bucket i (i == bounds().size() is the overflow bucket).
  uint64_t bucket_count(size_t i) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // packed double, CAS-accumulated
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;
};

// Records wall-time (seconds) into a histogram on scope exit.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& h_;
  uint64_t start_ns_;
};

// Point-in-time copy of one histogram's state, including raw buckets (the
// Prometheus exposition needs cumulative bucket counts, not just quantiles).
// Taken bucket-by-bucket with relaxed loads: concurrent observes may land
// between reads, so count/sum/buckets can disagree by in-flight samples —
// fine for monitoring, never torn.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum = 0, min = 0, max = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;  // bounds.size() + 1 (overflow last)
};

// Full-registry snapshot; the input to the JSON and Prometheus serializers
// in obs/stats.h.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

class Registry {
 public:
  // Process-wide instance (never destroyed: safe from exit handlers and
  // worker threads regardless of static teardown order).
  static Registry& instance();

  // Returns the named metric, creating it on first use. References stay
  // valid for the process lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds = {});

  // JSON snapshot:
  //   {"counters":{...},"gauges":{...},
  //    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  //                          "p50":..,"p90":..,"p99":..}}}
  std::string to_json() const;

  // Copies every metric's current value (names in map order). Safe against
  // concurrent mutation: registration holds the registry mutex, reads are
  // atomic per field.
  MetricsSnapshot snapshot() const;

  // Zeroes every metric (tests). Metric identities survive.
  void reset();

 private:
  Registry();
  struct Impl;
  Impl* impl_;
};

// Convenience wrappers around Registry::instance().
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name,
                     std::vector<double> upper_bounds = {});

}  // namespace dcdiff::obs

// Live introspection: serializing the metrics registry to operator-facing
// formats, and rolling-window SLO tracking.
//
// Two exposition formats over one Registry::snapshot():
//   * stats_json(extra)        — the registry's JSON snapshot, optionally
//     merged with a caller-provided "server" object (the serving engine
//     passes per-worker queue depths, inflight batch composition, and its
//     rolling SLO windows).
//   * stats_prometheus(extra)  — Prometheus text exposition (0.0.4):
//     counters and gauges as-is, histograms with cumulative `le` buckets
//     plus _sum/_count, all under the `dcdiff_` prefix with names sanitized
//     to [a-zA-Z0-9_:]. `extra` lines are appended verbatim so callers can
//     add labeled families the flat registry cannot express.
//
// SloTracker answers "how are we doing right now" rather than "since boot":
// completions land in per-second slots; window(n) merges the last n slots
// into goodput (ok requests/sec), deadline-miss rate, and an interpolated
// p99 over the slo_latency_bounds buckets. The serving engine keeps one and
// compares its 10s window against the ServerConfig SLO thresholds.
#pragma once

#include <cstdint>
#include <string>

namespace dcdiff::obs {

// Registry snapshot as JSON: {"counters":{...},"gauges":{...},
// "histograms":{...}} with `extra_json` (a complete JSON value) attached
// under "server" when non-empty.
std::string stats_json(const std::string& extra_json = "");

// Registry snapshot in Prometheus text-exposition format. `extra` is
// appended after the registry families (must itself be valid exposition
// lines, newline-terminated).
std::string stats_prometheus(const std::string& extra = "");

// "serve.queue_depth" -> "dcdiff_serve_queue_depth".
std::string prometheus_name(const std::string& name);

// Rolling-window request-outcome tracker. Thread-safe; record() is a mutex
// plus a few adds, cheap against model time.
class SloTracker {
 public:
  // Aggregates over the most recent `seconds` (see window()).
  struct Window {
    int seconds = 0;
    uint64_t completed = 0;        // everything that got an answer
    uint64_t ok = 0;
    uint64_t deadline_missed = 0;  // expired in queue or answered late
    uint64_t errors = 0;           // internal errors
    double goodput = 0;            // ok / seconds
    double miss_rate = 0;          // deadline_missed / completed (0 if none)
    double p99_seconds = 0;        // e2e latency, ok + missed alike
  };

  explicit SloTracker(int max_window_seconds = 60);
  ~SloTracker();
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  // One answered request. `ok`: full-quality goodput; `error`: an internal
  // error. A degraded answer that missed no deadline is neither.
  void record(double e2e_seconds, bool ok, bool deadline_missed, bool error);
  // Stats over the last `seconds` (clamped to [1, max_window_seconds]).
  Window window(int seconds) const;
  int max_window_seconds() const;

  // {"10s":{...},"60s":{...}} for the conventional pair of windows (60s
  // clamped to the tracker's max).
  std::string windows_json() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace dcdiff::obs

// Request-scoped tracing and the per-request flight recorder.
//
// TraceContext carries the identity of the request(s) a thread is currently
// working on — the monotonically unique request_id(s) assigned at submit and
// the index of the serving worker executing them. Binding a context is
// thread-local and RAII (ScopedTraceContext), so it survives queue hand-off
// and work stealing for free: at each step boundary the worker thread
// running requests binds their ids, and every DCDIFF_TRACE_SPAN that closes
// on that thread (serve.batch, ddim_step, decode, ...) is stamped with them
// in the Chrome-trace output. A boundary's context lists all ids sharing
// its step; a span therefore "carries the request_id" of every request
// whose path it lies on.
//
// RequestRecord is the structured per-request timeline
// (submit -> route -> batch -> model -> done, trace-clock microseconds) the
// serving engine emits for every completed request. FlightRecorder keeps the
// last N of them in a fixed-size ring so the full per-stage history of any
// recent request — in particular one that just missed its deadline or
// failed — can be dumped as JSON after the fact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dcdiff::obs {

struct TraceContext {
  std::vector<uint64_t> request_ids;  // requests sharing the current work
  int worker = -1;                    // serving worker index (-1 outside one)
};

// Binds `ctx` as the calling thread's current context for the scope.
// Contexts nest; each scope restores the previous binding. When tracing is
// disabled the bind is a no-op (id() == -1) so the serving hot path pays
// nothing for it.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  // Interned id of this context (-1 when tracing is disabled).
  int32_t id() const { return id_; }

 private:
  int32_t prev_;
  int32_t id_;
};

// Interns a context without binding it (for events emitted on behalf of
// another thread, e.g. per-request queue-wait spans). Returns -1 when
// tracing is disabled.
int32_t intern_trace_context(TraceContext ctx);

// The calling thread's current context id (-1 when none is bound).
int32_t current_trace_context_id();

// JSON fragment appended inside a trace event's "args" object for context
// `id` — e.g. ",\"worker\":1,\"request_ids\":[7,9]". Empty for -1 or an
// unknown id.
std::string trace_context_args_json(int32_t id);

// Drops all interned contexts (tests; pair with clear_trace()).
void clear_trace_contexts();

// ----- per-request structured record + flight recorder -----

// One request's life, stage by stage. Timestamps are microseconds on the
// trace clock (obs::trace_now_us — a process-wide steady clock), so records
// line up with Chrome-trace spans from the same run.
struct RequestRecord {
  uint64_t request_id = 0;
  uint64_t session_id = 0;
  int worker = -1;       // worker that executed (not merely queued) it
  int routed_worker = -1;  // worker the router enqueued it on
  bool stolen = false;     // executed by a worker other than routed_worker
  double submit_us = 0;    // accepted into the server
  double route_us = 0;     // enqueued on routed_worker's queue
  double batch_us = 0;     // popped from a queue, at a step boundary
  double model_us = 0;     // joined the running batch (admission began)
  double done_us = 0;      // left it, answered
  int batch_size = 0;      // requests running in its first step
  int ddim_steps = 0;      // per-request sampling target
  int steps_done = 0;      // DDIM steps actually executed (anytime serving)
  int ensemble = 0;
  int deadline_ms = 0;     // 0 = none
  bool deadline_missed = false;
  bool degraded = false;   // answered from an early checkpoint
  bool tiled = false;      // a tile sub-request (or a stitched parent)
  double queue_wait_seconds = 0;
  double e2e_seconds = 0;
  std::string status = "ok";  // StatusCode name for failures
};

// One JSON object per record (stable schema; see DESIGN.md).
std::string request_record_json(const RequestRecord& r);

// Fixed-capacity ring of the most recent completed request records.
// Thread-safe; record() overwrites the oldest entry once full.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 256);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(RequestRecord r);
  size_t capacity() const;
  size_t size() const;             // records currently held (<= capacity)
  uint64_t total_recorded() const;  // lifetime count, survives wraparound
  std::vector<RequestRecord> snapshot() const;  // oldest -> newest

  // Writes {"reason":...,"records":[...]} to `path`. Returns false when the
  // file cannot be written.
  bool dump_json(const std::string& path, const std::string& reason) const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace dcdiff::obs

// Task-typed request/response surface of the serving engine.
//
// ReconstructRequest is the one submission type: bytes plus deadline, QoS
// tier, delivery mode, and tile policy. Session::submit returns a
// ResultStream — a small bounded channel that yields zero or more
// Partial{image, step, psnr_proxy} refinements followed by exactly one
// terminal Result. Final-only callers use Session::submit_future, a thin
// adapter over the same channel that surfaces just the terminal Result.
//
// Result separates *what happened to the task* (Outcome) from *transport
// errors* (Status): kComplete / kDegraded both carry a decodable image
// (degraded = fewer DDIM steps than the quality target, e.g. a deadline
// fired mid-sampling or the StepGovernor shed load); kRejected means no
// image was produced and `status` says why (bad bitstream, queue full,
// shutdown, internal error).
//
// Stream semantics:
// * Ordering: partial steps are strictly increasing; the terminal Result is
//   always the last event.
// * Bounded + lossy backpressure: at most `capacity` undelivered partials
//   are buffered; when full, the oldest is dropped (a newer checkpoint
//   supersedes it — the worker never blocks on a slow consumer). The
//   terminal Result is never dropped.
// * Thread-safe: one server-side producer, any number of consumer calls
//   (externally ordered).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "image/image.h"
#include "support/status.h"

namespace dcdiff::serve {

// Which way a request trades quality for latency under load.
enum class QosTier {
  kQuality,  // never governed below the full step count
  kLatency,  // the StepGovernor may shed DDIM steps under queue pressure
};

// Whether intermediate checkpoints are delivered.
enum class DeliveryMode {
  kFinalOnly,    // terminal Result only
  kProgressive,  // Partial per emitted DDIM checkpoint, then the Result
};

// MCU-aligned tiling of oversized images (see serve/tiler.h).
struct TilePolicy {
  // > 0 enables tiling: coefficient images wider or taller than this split
  // into a grid of tiles at most this many pixels per side (rounded to MCU
  // multiples). 0 = never tile.
  int max_tile_px = 0;
  // Context halo reconstructed around each tile and discarded at stitch
  // time (pixels; rounded up to MCU multiples). Wider halo = closer match
  // to the untiled result, more redundant compute.
  int halo_px = 32;
  // Crossfade width at interior seams (pixels; >= 8, one block row).
  int overlap_px = 8;
};

// The one submission type of the v2 serving API.
struct ReconstructRequest {
  std::vector<uint8_t> jfif;
  // Relative deadline from submit(); <= 0 = none. With degraded service
  // enabled (ServerConfig::min_steps > 0) an expired request is answered
  // with its best DDIM checkpoint (outcome kDegraded) instead of an error.
  int deadline_ms = 0;
  QosTier tier = QosTier::kQuality;
  DeliveryMode delivery = DeliveryMode::kFinalOnly;
  TilePolicy tile;
  // >= 0 pins the request to that worker's queue (modulo worker count);
  // tests use this to construct imbalance deterministically. Tiled
  // sub-requests always route least-loaded.
  int worker_hint = -1;
};

// How a request ended.
enum class Outcome {
  kComplete,  // full-quality image, all targeted DDIM steps ran
  kDegraded,  // valid image from an early checkpoint (fewer steps)
  kRejected,  // no image; see Result::status
};

const char* outcome_name(Outcome o);

// An intermediate refinement: the image decoded from a mid-sampling DDIM
// checkpoint. `psnr_proxy` is a convergence proxy (PSNR-style distance of
// this checkpoint's latent to the previously emitted one; 0 for the first).
struct Partial {
  Image image;
  int step = 0;
  double psnr_proxy = 0;
};

// Terminal outcome of one request. `image` is valid iff
// outcome != kRejected; `status` carries transport errors only.
struct Result {
  Status status;
  Outcome outcome = Outcome::kRejected;
  Image image;
  int steps_done = 0;    // DDIM steps actually executed
  int steps_target = 0;  // the quality target the request aimed for
  double e2e_seconds = 0;  // submit -> done, as in the request's record
  // Tiled requests: the worker index that executed each tile (empty for
  // untiled requests). Tests assert fan-out across >= 2 workers.
  std::vector<int> tile_workers;
};

namespace detail {

// Shared channel state between the server-side producer and ResultStream.
struct StreamState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Partial> partials;
  size_t capacity = 4;
  uint64_t dropped = 0;  // partials displaced by newer ones
  bool has_result = false;
  bool result_taken = false;
  Result result;
  // The submit_future adapter's handle; fulfilled alongside `result`.
  std::promise<Result> terminal;
  bool want_partials = false;  // producer skips partial decode when false
};

// Producer side (ReceiverServer). push_partial never blocks: when the
// buffer is full the oldest partial is dropped.
void push_partial(const std::shared_ptr<StreamState>& s, Partial p);
void push_result(const std::shared_ptr<StreamState>& s, Result r);

}  // namespace detail

// Consumer handle for one request's event stream. Cheap to copy (shared
// state); default-constructed streams are empty and immediately exhausted.
class ResultStream {
 public:
  struct Event {
    bool terminal = false;
    Partial partial;  // valid when !terminal
    Result result;    // valid when terminal
  };

  ResultStream() = default;
  // Wraps an existing channel. The state type lives in detail::, so this is
  // effectively internal (the server and channel unit tests use it).
  explicit ResultStream(std::shared_ptr<detail::StreamState> s)
      : state_(std::move(s)) {}

  // Blocks for the next event. Returns false once the terminal Result has
  // been consumed (stream exhausted).
  bool next(Event* out);

  // Blocks until the terminal Result, discarding any unread partials.
  // Repeated calls return the same Result.
  Result wait();

  // Partials dropped because the bounded buffer was full when a newer
  // checkpoint arrived.
  uint64_t dropped_partials() const;

  bool valid() const { return state_ != nullptr; }

 private:
  std::shared_ptr<detail::StreamState> state_;
};

}  // namespace dcdiff::serve

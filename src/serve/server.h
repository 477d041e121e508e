// Batched receiver serving engine, sharded across cores, with anytime
// (deadline-degraded) sampling, progressive delivery, and MCU-tiled fan-out.
//
// The receiver is the expensive half of DCDiff by design (the paper moves
// all cost off the low-power sender): each image runs a chain of DDIM steps
// through the UNet and then the stage-1 decoder. Requests share the steps:
// every worker runs a batch of requests, one UNet-step call over all their
// latent rows (core::RunningBatch), so the GEMM kernel sees wide shapes and
// per-op overheads amortize across requests.
//
// Architecture (workers = 3 shown):
//
//   Session::submit(ReconstructRequest)
//        |  decode (Status, non-throwing); oversized images tile here
//        v
//   least-loaded router ──> per-worker queue 0 ──> worker 0 (pool 0)
//                      ──> per-worker queue 1 ──> worker 1 (pool 1)
//                      ──> per-worker queue 2 ──> worker 2 (pool 2)
//                            (work stealing when a worker's queue runs dry)
//
// * One model: every worker runs the server's one DCDiffModel. Its
//   weights, PackedA panels and compiled plans are immutable while it
//   serves, and a plan runs in the calling thread's arena, so N workers
//   cost one model's memory and compile each plan once.
// * Partitioned compute: with workers > 1 each worker binds its own
//   nn::ThreadPool partition (disjoint CPU ranges when pin_cpus is set), so
//   the model's nested parallel loops never contend across workers.
// * Least-loaded routing: submit() appends to the queue of the worker with
//   the fewest queued + running requests (ties go to the lowest index);
//   ReconstructRequest::worker_hint pins a request to a specific worker.
// * Step-level batching (iteration-level scheduling; Orca, Yu et al.,
//   OSDI 2022): a worker's requests run in one batch per padded size
//   (core::RunningBatch) and join it at DDIM step boundaries. An idle
//   worker starts a popped request at once; a busy one, at each boundary,
//   admits requests from its own queue, then by stealing from the deepest
//   other queue, up to max_batch running requests. Nobody waits for
//   batch-mates: there is no batching window. An idle worker holds no
//   batch buffers and no plan arena.
// * Per-request decisions at every boundary: a request retires when its
//   own step target is reached, or when its deadline has passed and
//   min_steps have run (kDegraded, with its latest checkpoint; a deadline
//   never fails a request); a progressive request gets a partial every
//   partial_interval steps; a failure fails only the requests it touched.
// * Load shedding: the StepGovernor sets a QosTier::kLatency request's
//   step target at admission from the queue depth
//   (governor_depth_per_step), never below min_steps; shed requests
//   complete as kDegraded. kQuality requests always run the full chain.
// * Progressive delivery: DeliveryMode::kProgressive requests receive
//   Partial{image, step, psnr_proxy} checkpoints through their ResultStream.
//   A partial decodes only its own request's checkpoint, so final-only
//   batch-mates pay nothing for it.
// * Tiled fan-out: a coefficient image larger than
//   ReconstructRequest::tile.max_tile_px splits into MCU-aligned tiles
//   (serve/tiler.h) that enqueue as sibling sub-requests routed
//   least-loaded across workers; the last tile to finish stitches (DC
//   offset reconciliation + per-tile corner anchoring + overlap blend) and
//   fulfils the parent stream. Result::tile_workers records the fan-out.
// * Backpressure: submits beyond queue_capacity (total queued across
//   workers) are rejected immediately with Status{kResourceExhausted}.
// * Errors are values: a malformed bitstream yields Outcome::kRejected with
//   a per-request Status (kDataLoss/kInvalidArgument) at submit time;
//   nothing throws across the serving boundary.
// * Shutdown drains every queue: requests accepted before shutdown() are
//   reconstructed (deadline rules still apply) before workers exit.
//
// The public API is session-based: clients obtain a Session handle from
// ReceiverServer::open_session() and submit through it; per-session request
// counts make multi-tenant accounting possible without threading client
// identity through the queue.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/running_batch.h"
#include "image/image.h"
#include "nn/threadpool.h"
#include "obs/reqtrace.h"
#include "obs/stats.h"
#include "serve/governor.h"
#include "serve/stream.h"
#include "serve/tiler.h"
#include "support/status.h"

namespace dcdiff::serve {

struct ServerConfig {
  int max_batch = 4;         // requests running on one worker at once
  // Accepted and ignored: a worker admits requests at step boundaries and
  // never waits to fill a batch. Kept so existing callers compile.
  int batch_timeout_ms = 2;
  int queue_capacity = 64;   // pending requests beyond this are rejected
  int workers = 1;           // batching worker threads (one shared model)
  // Compute threads split across the workers' pool partitions; 0 = hardware
  // concurrency. Ignored with workers == 1 unless set explicitly (a single
  // worker then still gets a private partition of this size).
  int pool_threads = 0;
  // Pin each partition's threads to a disjoint CPU range (Linux; ignored
  // when oversubscribed or unsupported).
  bool pin_cpus = false;
  core::ReconstructOptions recon;  // inference options applied to every batch

  // --- anytime serving ---
  // Quality floor in DDIM steps for degraded service: a request whose
  // deadline fires (queued or mid-batch) gets its best checkpoint with
  // Outcome::kDegraded once this many steps have run. Values < 1 clamp to 1.
  int min_steps = 1;
  // > 0 enables the StepGovernor: a QosTier::kLatency request drops one
  // DDIM step per this many queued requests at its admission (floored at
  // min_steps). 0 disables load shedding.
  int governor_depth_per_step = 0;
  // Steps between progressive partial emissions; 0 = auto (about a third of
  // the request's step target).
  int partial_interval = 0;

  // --- introspection & SLOs ---
  // > 0 starts a snapshot thread that refreshes the serve.slo.* gauges every
  // interval and, when stats_path is set, rewrites <stats_path> (JSON) and
  // <stats_path>.prom (Prometheus).
  int stats_interval_ms = 0;
  std::string stats_path;
  // Ring capacity of the per-request flight recorder (always recording).
  int flight_recorder_size = 256;
  // Non-empty: the ring is dumped here automatically when a request misses
  // its deadline, fails with an internal error, or at shutdown.
  std::string flight_recorder_path;
  // Rolling 10s-window SLO thresholds; 0 disables a check. Entering
  // violation increments serve.slo.p99_violations /
  // serve.slo.miss_rate_violations (edge-triggered, once per excursion) and
  // logs a warning.
  int slo_p99_ms = 0;        // p99 e2e latency ceiling
  int slo_miss_rate_pct = 0;  // deadline-miss-rate ceiling, percent

  // Reads DCDIFF_SERVE_MAX_BATCH /
  // DCDIFF_SERVE_QUEUE_CAP / DCDIFF_SERVE_WORKERS /
  // DCDIFF_SERVE_POOL_THREADS / DCDIFF_SERVE_PIN_CPUS /
  // DCDIFF_SERVE_MIN_STEPS / DCDIFF_SERVE_GOVERNOR_DEPTH /
  // DCDIFF_SERVE_PARTIAL_INTERVAL / DCDIFF_STATS_INTERVAL_MS /
  // DCDIFF_STATS_FILE / DCDIFF_FLIGHT_RECORDER_SIZE /
  // DCDIFF_FLIGHT_RECORDER_FILE / DCDIFF_SERVE_SLO_P99_MS /
  // DCDIFF_SERVE_SLO_MISS_PCT over the defaults.
  static ServerConfig from_env();

  // Reduced-latency inference preset for deadline-bound serving: a single
  // ensemble member and half the configured DDIM steps, FMPP left on. On a
  // single core equal-work batching is roughly throughput-neutral (per-op
  // overhead is tiny relative to the GEMMs), so this preset is where the
  // serving engine's images/sec headroom comes from; on the quickstart-fast
  // model it costs ~0.02 dB PSNR for ~1.7x throughput at max_batch=4
  // (bench_serve measures both sides of that trade).
  static core::ReconstructOptions latency_recon(const core::DCDiffConfig& cfg);
};

class ReceiverServer;

// Client handle; cheap to copy, valid while the server lives. All submission
// goes through a session so requests are attributable to a client.
class Session {
 public:
  // Decodes the bitstream (non-throwing) and enqueues the reconstruction
  // (tiled into sibling sub-requests when the image exceeds the request's
  // tile policy). The returned stream is always valid; rejection (bad
  // bitstream, queue full, server shutting down) yields an immediately-
  // ready terminal Result with Outcome::kRejected.
  ResultStream submit(const ReconstructRequest& req);

  // Final-only adapter over the same channel: progressive partials (if any)
  // are buffered-and-dropped, the future resolves with the terminal Result.
  std::future<Result> submit_future(const ReconstructRequest& req);

  // Blocking convenience: submit and wait for the terminal Result.
  Result reconstruct(const ReconstructRequest& req);

  uint64_t id() const { return id_; }
  // Requests this session and its copies have submitted (accepted or
  // rejected; a tiled submission counts once).
  uint64_t submitted() const { return submits_->load(); }

 private:
  friend class ReceiverServer;
  Session(ReceiverServer* server, uint64_t id)
      : server_(server),
        id_(id),
        submits_(std::make_shared<std::atomic<uint64_t>>(0)) {}
  ReceiverServer* server_;
  uint64_t id_;
  std::shared_ptr<std::atomic<uint64_t>> submits_;  // shared by copies
};

class ReceiverServer {
 public:
  // model == nullptr resolves ModelPool::instance().default_instance()
  // (trained or loaded on first use — pass an explicit pooled model to
  // avoid that cost at construction). Every worker runs this one model.
  explicit ReceiverServer(
      const ServerConfig& cfg = ServerConfig{},
      std::shared_ptr<const core::DCDiffModel> model = nullptr);
  ~ReceiverServer();

  ReceiverServer(const ReceiverServer&) = delete;
  ReceiverServer& operator=(const ReceiverServer&) = delete;

  Session open_session();

  // Stops accepting new requests, drains everything queued on every worker
  // (deadline rules still apply), and joins the workers. Idempotent; the
  // destructor calls it.
  void shutdown();

  // Exported once: as server.workers[i] in stats_json() and as the
  // dcdiff_serve_worker_*{worker="i"} families in stats_prometheus().
  struct WorkerStats {
    uint64_t batches = 0;  // running-batch steps (UNet-step calls) run
    // Logical requests this worker answered with an image (a tiled request
    // counts on the worker that stitched it).
    uint64_t completed = 0;
    uint64_t steals = 0;  // requests this worker stole from other queues
    size_t queue_depth = 0;
  };
  struct Stats {
    uint64_t sessions_opened = 0;
    uint64_t accepted = 0;
    uint64_t completed = 0;
    uint64_t degraded = 0;   // answered with an early checkpoint
    uint64_t partials = 0;   // progressive partials delivered
    // Progressive requests whose partial delivery was skipped because the
    // consumer destroyed its ResultStream (server held the only reference).
    uint64_t partials_suppressed = 0;
    uint64_t tiles = 0;      // tile sub-requests executed
    uint64_t governor_sheds = 0;  // requests the governor shortened
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_decode = 0;
    uint64_t rejected_shutdown = 0;
    uint64_t internal_errors = 0;
    uint64_t batches = 0;  // running-batch steps, summed over workers
    uint64_t steals = 0;
    size_t queue_depth = 0;  // total across workers
    std::vector<WorkerStats> workers;
  };
  Stats stats() const;

  // --- introspection (see DESIGN.md "Introspection & SLOs") ---
  // Metrics registry + live server state (per-worker queue depth, running
  // request ids, steal counts, rolling SLO windows, flight-recorder
  // occupancy) as one JSON document.
  std::string stats_json() const;
  // The same snapshot in Prometheus text-exposition format, with per-worker
  // families labeled {worker="i"}.
  std::string stats_prometheus() const;
  // Writes stats_json() to `path` and stats_prometheus() to `path` + ".prom".
  bool dump_stats(const std::string& path) const;
  // Rolling-window outcomes (goodput, p99, deadline-miss rate) over the last
  // `seconds` (clamped to 60). Degraded results are not goodput; a degrade
  // caused by a deadline counts as a miss.
  obs::SloTracker::Window slo_window(int seconds) const;
  // Ring buffer of the last N completed per-request records.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  bool dump_flight_recorder(const std::string& path,
                            const std::string& reason) const;

  const ServerConfig& config() const { return cfg_; }
  const core::DCDiffModel& model() const { return *model_; }
  // The model worker `i` runs requests on: model(), for every worker.
  const core::DCDiffModel& worker_model(int i) const;

 private:
  friend class Session;
  struct TileJob;
  struct Running;

  // One request, queued or executing. Its identity and timeline live in one
  // place, `rec`: request/session id, deadline and the trace-clock stamps of
  // submit -> route -> pop (batch_us) -> join (model_us: its admission into
  // the running batch begins) -> done, each read once at its boundary.
  // Everything else a finished request reports (e2e, queue wait, deadline
  // miss, Stats, metrics, spans, SLO) is derived from it by finish_request.
  struct Request {
    jpeg::CoeffImage coeffs;
    // The client's channel; null for tile sub-requests, which deposit into
    // their TileJob instead.
    std::shared_ptr<detail::StreamState> stream;
    QosTier tier = QosTier::kQuality;
    DeliveryMode delivery = DeliveryMode::kFinalOnly;
    // Tiled fan-out: sub-requests share the parent TileJob. noise_x0/y0 are
    // the crop origin in latent units so coordinate-seeded noise matches
    // the untiled field.
    std::shared_ptr<TileJob> tile;
    int tile_index = 0;
    int noise_x0 = 0;
    int noise_y0 = 0;
    uint64_t partials = 0;   // progressive partials pushed to the stream
    bool suppressed = false;  // partials skipped: the consumer had left
    obs::RequestRecord rec;
  };

  // Shared aggregation state of one tiled submission: tile sub-requests
  // deposit their reconstructions here; the worker that completes the last
  // tile stitches and fulfils the parent.
  struct TileJob {
    std::mutex mu;
    TileLayout layout;
    std::vector<Image> images;     // per tile, crop-sized, raw
    std::vector<int> tile_workers; // worker index that ran each tile
    std::vector<int> tile_steps;   // DDIM steps each tile executed
    size_t remaining = 0;
    Status error;  // first internal error across tiles (ok = none)
    // The logical request: the full coefficients, the client's stream and
    // the parent record (routed_worker -1; its batch and model stamps are
    // the earliest of its tiles', its done stamp follows the stitch).
    Request parent;
  };

  // One serving shard: a queue and (workers > 1) a private thread-pool
  // partition. All mutable state here is guarded by the server-wide mu_ —
  // operations on it are queue pushes/pops, cheap against model time, and
  // one lock keeps routing + stealing + shutdown-drain trivially race-free.
  // The running batches themselves belong to the worker's thread.
  struct Worker {
    std::deque<Request> queue;
    std::unique_ptr<nn::ThreadPool> pool;  // null: use the global pool
    WorkerStats stats;
    int index = 0;
    // Ids of the requests running on this worker, from pop to done: its
    // load for routing, and stats_json()'s inflight composition.
    std::vector<uint64_t> inflight;
    std::thread thread;
  };
  // A worker's running batches: one per padded size it has requests of
  // (its thread only).
  using Batches = std::vector<std::unique_ptr<core::RunningBatch>>;

  std::shared_ptr<detail::StreamState> submit(const Session& session,
                                              const ReconstructRequest& req);
  // Least-loaded worker index (queued + running requests, ties to the
  // lowest index); `hint` >= 0 overrides. Caller holds mu_.
  int route_locked(int hint) const;
  // Moves one request into `out`: from `self`'s queue, else stolen from
  // the deepest other queue (counted in *steals). Stamps its pop and
  // counts it running on `self`. Caller holds mu_.
  bool pop_one_locked(Worker& self, std::vector<Request>& out,
                      uint64_t* steals);
  void worker_loop(int index);
  // One step boundary of a worker: admits the requests just popped (queue
  // depth `depth` at the pop), runs one step of every running batch, then
  // retires each request its own target, deadline or error ends and emits
  // the partials that are due.
  void advance(Worker& self, Batches& batches, std::list<Running>& running,
               std::vector<Request>& joined, size_t depth);
  // Answers a request that was running on `self` (stamps done, drops it
  // from the worker's load, then finish_request).
  void finish_running(Worker& self, Request& r, Result res);
  // The one booking point, for every request: derives e2e, queue wait and
  // the deadline miss from the finished record; for a logical request (a
  // plain request or a stitched tile parent) books Stats, the serve.*
  // outcome counters and histograms, the queue-wait span and the SLO
  // sample; records the flight entry — and only then hands `res` on: to
  // the client's stream, or for a tile sub-request to finish_tile. Then the
  // auto-dump on a deadline miss or internal error and the SLO threshold
  // edge checks.
  void finish_request(Request& r, Result res);
  // Deposits one finished tile; the last one stitches and finishes the
  // parent request.
  void finish_tile(Request& r, Result res);
  void snapshot_loop();
  void refresh_slo_gauges() const;
  std::string server_state_json() const;

  ServerConfig cfg_;
  std::shared_ptr<const core::DCDiffModel> model_;
  StepGovernor governor_{StepGovernor::Config{}};
  int full_steps_ = 1;  // resolved DDIM step target (recon or model config)
  int ensemble_ = 1;    // resolved noise rows per request

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t total_queued_ = 0;  // sum of worker queue sizes
  bool stopping_ = false;
  Stats stats_;
  uint64_t next_session_id_ = 1;
  uint64_t next_request_id_ = 1;  // under mu_

  obs::SloTracker slo_;
  obs::FlightRecorder flight_;
  // Edge-trigger state for the SLO threshold checks (under slo_mu_).
  mutable std::mutex slo_mu_;
  bool p99_violating_ = false;
  bool miss_rate_violating_ = false;

  std::thread snap_thread_;
  std::mutex snap_mu_;
  std::condition_variable snap_cv_;
  bool snap_stop_ = false;
};

}  // namespace dcdiff::serve

#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

#include "jpeg/codec.h"
#include "nn/plan/plan.h"
#include "obs/env.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fault.h"

namespace dcdiff::serve {
namespace {

Result rejected(Status st) {
  Result r;
  r.status = std::move(st);
  r.outcome = Outcome::kRejected;
  return r;
}

// The terminal Result of a reconstruction that ran `done` of `target` steps.
Result finished(Image image, int done, int target) {
  Result r;
  r.outcome = done < target ? Outcome::kDegraded : Outcome::kComplete;
  r.image = std::move(image);
  r.steps_done = done;
  r.steps_target = target;
  return r;
}

// Trace-clock instant a request's deadline expires (+inf when it has none).
double deadline_us(const obs::RequestRecord& rec) {
  return rec.deadline_ms > 0 ? rec.submit_us + 1e3 * rec.deadline_ms
                             : std::numeric_limits<double>::infinity();
}

// Interned trace context of one request on `worker` (-1 with tracing off).
int32_t request_context(const obs::RequestRecord& rec) {
  obs::TraceContext ctx;
  ctx.worker = rec.worker;
  ctx.request_ids.push_back(rec.request_id);
  return obs::intern_trace_context(std::move(ctx));
}

// Busy seconds of the pool a worker computes on: its partition, or the
// global pool when it has none. A relaxed atomic read, taken at export.
double pool_busy_seconds(const nn::ThreadPool* partition) {
  return (partition ? *partition : nn::ThreadPool::instance()).busy_seconds();
}

}  // namespace

ServerConfig ServerConfig::from_env() {
  ServerConfig cfg;
  cfg.max_batch = obs::env_int("DCDIFF_SERVE_MAX_BATCH", cfg.max_batch);
  cfg.queue_capacity = obs::env_int("DCDIFF_SERVE_QUEUE_CAP", cfg.queue_capacity);
  cfg.workers = obs::env_int("DCDIFF_SERVE_WORKERS", cfg.workers);
  cfg.pool_threads =
      obs::env_int("DCDIFF_SERVE_POOL_THREADS", cfg.pool_threads);
  cfg.pin_cpus = obs::env_int("DCDIFF_SERVE_PIN_CPUS", cfg.pin_cpus ? 1 : 0) != 0;
  cfg.min_steps = obs::env_int("DCDIFF_SERVE_MIN_STEPS", cfg.min_steps);
  cfg.governor_depth_per_step =
      obs::env_int("DCDIFF_SERVE_GOVERNOR_DEPTH", cfg.governor_depth_per_step);
  cfg.partial_interval =
      obs::env_int("DCDIFF_SERVE_PARTIAL_INTERVAL", cfg.partial_interval);
  cfg.stats_interval_ms =
      obs::env_int("DCDIFF_STATS_INTERVAL_MS", cfg.stats_interval_ms);
  cfg.stats_path = obs::env_str("DCDIFF_STATS_FILE", cfg.stats_path.c_str());
  cfg.flight_recorder_size =
      obs::env_int("DCDIFF_FLIGHT_RECORDER_SIZE", cfg.flight_recorder_size);
  cfg.flight_recorder_path = obs::env_str("DCDIFF_FLIGHT_RECORDER_FILE",
                                          cfg.flight_recorder_path.c_str());
  cfg.slo_p99_ms = obs::env_int("DCDIFF_SERVE_SLO_P99_MS", cfg.slo_p99_ms);
  cfg.slo_miss_rate_pct =
      obs::env_int("DCDIFF_SERVE_SLO_MISS_PCT", cfg.slo_miss_rate_pct);
  return cfg;
}

core::ReconstructOptions ServerConfig::latency_recon(
    const core::DCDiffConfig& cfg) {
  core::ReconstructOptions o;
  o.ensemble = 1;
  o.ddim_steps = std::max(1, cfg.ddim_steps / 2);
  o.use_fmpp = true;
  return o;
}

ResultStream Session::submit(const ReconstructRequest& req) {
  return ResultStream(server_->submit(*this, req));
}

std::future<Result> Session::submit_future(const ReconstructRequest& req) {
  return server_->submit(*this, req)->terminal.get_future();
}

Result Session::reconstruct(const ReconstructRequest& req) {
  return submit(req).wait();
}

ReceiverServer::ReceiverServer(const ServerConfig& cfg,
                               std::shared_ptr<const core::DCDiffModel> model)
    : cfg_(cfg),
      model_(std::move(model)),
      flight_(static_cast<size_t>(std::max(1, cfg.flight_recorder_size))) {
  cfg_.max_batch = std::max(1, cfg_.max_batch);
  cfg_.queue_capacity = std::max(1, cfg_.queue_capacity);
  cfg_.workers = std::max(1, cfg_.workers);
  cfg_.pool_threads = std::max(0, cfg_.pool_threads);
  cfg_.min_steps = std::max(1, cfg_.min_steps);
  cfg_.governor_depth_per_step = std::max(0, cfg_.governor_depth_per_step);
  cfg_.partial_interval = std::max(0, cfg_.partial_interval);
  cfg_.stats_interval_ms = std::max(0, cfg_.stats_interval_ms);
  cfg_.flight_recorder_size = std::max(1, cfg_.flight_recorder_size);
  if (!model_) model_ = core::ModelPool::instance().default_instance();
  full_steps_ = cfg_.recon.ddim_steps > 0 ? cfg_.recon.ddim_steps
                                          : model_->config().ddim_steps;
  full_steps_ = std::max(1, full_steps_);
  ensemble_ = cfg_.recon.ensemble > 0
                  ? cfg_.recon.ensemble
                  : std::max(1, model_->config().sample_ensemble);
  cfg_.min_steps = std::min(cfg_.min_steps, full_steps_);
  governor_ = StepGovernor(StepGovernor::Config{
      full_steps_, cfg_.min_steps, cfg_.governor_depth_per_step});
  DCDIFF_LOG_INFO("serve", "server_start",
                  {{"max_batch", cfg_.max_batch},
                   {"queue_capacity", cfg_.queue_capacity},
                   {"workers", cfg_.workers},
                   {"pool_threads", cfg_.pool_threads},
                   {"pin_cpus", cfg_.pin_cpus},
                   {"min_steps", cfg_.min_steps},
                   {"governor_depth_per_step", cfg_.governor_depth_per_step}});

  // A single worker with no explicit pool_threads keeps the global pool (the
  // pre-sharding behaviour); otherwise the machine is carved into one
  // partition per worker so their nested parallel loops never contend.
  std::vector<std::unique_ptr<nn::ThreadPool>> pools;
  if (cfg_.workers > 1 || cfg_.pool_threads > 0) {
    pools = nn::partition_pools(cfg_.workers, cfg_.pool_threads, cfg_.pin_cpus);
  }

  workers_.reserve(static_cast<size_t>(cfg_.workers));
  stats_.workers.resize(static_cast<size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    if (!pools.empty()) w->pool = std::move(pools[static_cast<size_t>(i)]);
    workers_.push_back(std::move(w));
  }
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread([this, i] { worker_loop(i); });
  }
  if (cfg_.stats_interval_ms > 0) {
    snap_thread_ = std::thread([this] { snapshot_loop(); });
  }
}

ReceiverServer::~ReceiverServer() { shutdown(); }

Session ReceiverServer::open_session() {
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t id = next_session_id_++;
  stats_.sessions_opened++;
  return Session(this, id);
}

const core::DCDiffModel& ReceiverServer::worker_model(int) const {
  return *model_;
}

int ReceiverServer::route_locked(int hint) const {
  const int n = static_cast<int>(workers_.size());
  if (hint >= 0) return hint % n;
  int best = 0;
  size_t best_load = std::numeric_limits<size_t>::max();
  for (int i = 0; i < n; ++i) {
    const Worker& w = *workers_[static_cast<size_t>(i)];
    const size_t load = w.queue.size() + w.inflight.size();
    if (load < best_load) {
      best_load = load;
      best = i;
    }
  }
  return best;
}

std::shared_ptr<detail::StreamState> ReceiverServer::submit(
    const Session& session, const ReconstructRequest& req) {
  static obs::Counter& accepted = obs::counter("serve.accepted");
  static obs::Counter& rejected_decode = obs::counter("serve.rejected_decode");
  static obs::Counter& rejected_full = obs::counter("serve.rejected_queue_full");
  static obs::Counter& rejected_shutdown =
      obs::counter("serve.rejected_shutdown");
  static obs::Counter& tiles_ctr = obs::counter("serve.tiles");
  static obs::Gauge& depth = obs::gauge("serve.queue_depth");

  session.submits_->fetch_add(1);
  auto state = std::make_shared<detail::StreamState>();
  state->want_partials = req.delivery == DeliveryMode::kProgressive;

  // Decode on the submitting thread: it is cheap relative to reconstruction,
  // keeps malformed bitstreams out of the queue entirely, and reports the
  // parse error synchronously through the request's own stream.
  jpeg::CoeffImage coeffs;
  Status decode_status = jpeg::try_decode_jfif(req.jfif, &coeffs);

  // Tiling is decided at submit time too: the layout determines how many
  // queue slots the request needs, and extraction is cheap (block copies).
  TileLayout layout;
  if (decode_status.is_ok()) layout = plan_tiles(coeffs, req.tile);
  const size_t slots = layout.tiled() ? layout.tiles.size() : 1;

  const double submit_us = obs::trace_now_us();

  std::lock_guard<std::mutex> lk(mu_);
  if (!decode_status.is_ok()) {
    stats_.rejected_decode++;
    rejected_decode.inc();
    detail::push_result(state, rejected(std::move(decode_status)));
    return state;
  }
  if (stopping_) {
    stats_.rejected_shutdown++;
    rejected_shutdown.inc();
    detail::push_result(state,
                        rejected(Status::unavailable("server is shutting down")));
    return state;
  }
  // Fault site: force the capacity check to fail as if the queue were full,
  // so overload rejection is testable without actually racing the workers.
  if (DCDIFF_FAULT_POINT("serve.submit.queue_full") ||
      total_queued_ + slots > static_cast<size_t>(cfg_.queue_capacity)) {
    stats_.rejected_queue_full++;
    rejected_full.inc();
    detail::push_result(state, rejected(Status::resource_exhausted(
                                   "request queue full (capacity " +
                                   std::to_string(cfg_.queue_capacity) + ")")));
    return state;
  }

  // Ids are assigned at acceptance, under mu_, so they are unique per
  // server and monotone in acceptance order (rejected submits consume
  // none). A tiled request's tiles share its submit and route stamps.
  obs::RequestRecord rec;
  rec.request_id = next_request_id_++;
  rec.session_id = session.id_;
  rec.deadline_ms = std::max(0, req.deadline_ms);
  rec.submit_us = submit_us;
  rec.route_us = obs::trace_now_us();
  const auto enqueue = [&](Request r, int hint) {
    r.rec.routed_worker = route_locked(hint);
    workers_[static_cast<size_t>(r.rec.routed_worker)]->queue.push_back(
        std::move(r));
    ++total_queued_;
  };

  if (!layout.tiled()) {
    Request r;
    r.coeffs = std::move(coeffs);
    r.stream = state;
    r.tier = req.tier;
    r.delivery = req.delivery;
    r.rec = rec;
    enqueue(std::move(r), req.worker_hint);
  } else {
    auto job = std::make_shared<TileJob>();
    job->layout = layout;
    job->images.resize(layout.tiles.size());
    job->tile_workers.assign(layout.tiles.size(), -1);
    job->tile_steps.assign(layout.tiles.size(), 0);
    job->remaining = layout.tiles.size();
    rec.tiled = true;
    for (size_t i = 0; i < layout.tiles.size(); ++i) {
      const TileSpec& spec = layout.tiles[i];
      Request r;
      r.coeffs = extract_tile(coeffs, spec);
      // Delivery stays final-only: partials are a whole-image contract.
      r.tier = req.tier;
      r.tile = job;
      r.tile_index = static_cast<int>(i);
      // Latent grid is pixel / 4; crop origins are MCU-aligned so this is
      // exact. Coordinate-seeded noise then reproduces the untiled field.
      r.noise_x0 = spec.cx0 / 4;
      r.noise_y0 = spec.cy0 / 4;
      r.rec = rec;
      r.rec.request_id = next_request_id_++;
      // Tiles always route least-loaded: the point of the fan-out is to
      // land siblings on distinct workers.
      enqueue(std::move(r), -1);
    }
    job->parent.coeffs = std::move(coeffs);
    job->parent.stream = state;
    job->parent.rec = std::move(rec);
    stats_.tiles += layout.tiles.size();
    tiles_ctr.inc(static_cast<uint64_t>(layout.tiles.size()));
  }

  stats_.accepted++;
  depth.set(static_cast<double>(total_queued_));
  depth.set_max(static_cast<double>(total_queued_));
  accepted.inc();
  // All workers wake: the routed worker takes its request (at once when
  // idle, at its next step boundary when running); an idle worker whose
  // queue stayed empty may steal it first.
  queue_cv_.notify_all();
  return state;
}

bool ReceiverServer::pop_one_locked(Worker& self, std::vector<Request>& out,
                                    uint64_t* steals) {
  Worker* source = nullptr;
  if (!self.queue.empty()) {
    source = &self;
  } else {
    // Steal from the deepest queue so depth (and wait time) evens out.
    size_t deepest = 0;
    for (auto& w : workers_) {
      if (w.get() != &self && w->queue.size() > deepest) {
        deepest = w->queue.size();
        source = w.get();
      }
    }
    if (source != nullptr) ++*steals;
  }
  if (source == nullptr) return false;
  Request& r = out.emplace_back(std::move(source->queue.front()));
  source->queue.pop_front();
  --total_queued_;
  r.rec.worker = self.index;
  r.rec.stolen = source != &self;
  r.rec.batch_us = obs::trace_now_us();
  self.inflight.push_back(r.rec.request_id);
  return true;
}

// A request running on a worker: its handle in the worker's batch of its
// padded size, and what its own per-step decisions need.
struct ReceiverServer::Running {
  Request req;
  core::RunningBatch* batch = nullptr;
  int id = 0;          // its handle in `batch`
  int target = 0;      // its step target (the governor may shed steps)
  double skew_us = 0;  // deadline clock skew (fault injection)
};

void ReceiverServer::worker_loop(int index) {
  static obs::Gauge& depth_gauge = obs::gauge("serve.queue_depth");
  static obs::Counter& stolen = obs::counter("serve.steals");
  Worker& self = *workers_[static_cast<size_t>(index)];
  // Bind this thread's partition: every parallel loop in the model forward
  // now runs on this worker's disjoint thread set. The driving thread pins
  // itself to the partition's first CPU; the pool's workers occupy the rest.
  nn::PoolBinding pool_binding(self.pool.get());
  if (self.pool && self.pool->cpu_first() >= 0) {
    nn::pin_current_thread_to_cpu(self.pool->cpu_first());
  }
  Batches batches;
  std::list<Running> running;  // admission order; addresses stay put
  for (;;) {
    std::vector<Request> joined;
    uint64_t steals = 0;
    size_t depth = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (running.empty()) {
        if (!stopping_ && total_queued_ == 0) {
          // Going idle: like its emptied batches, the worker's plan arena
          // goes; the next request grows one for what it runs.
          lk.unlock();
          nn::plan::release_thread_arena();
          lk.lock();
        }
        queue_cv_.wait(lk, [&] { return stopping_ || total_queued_ > 0; });
        if (total_queued_ == 0) return;  // stopping_ and every queue drained
        // Fault site: widen the wake->pop race. Dropping the lock here lets
        // a sibling worker steal the request this thread was woken for,
        // the interleaving the steal path exists to survive.
        double race_ms = 0;
        if (DCDIFF_FAULT_POINT_P("serve.steal_race.delay", &race_ms)) {
          lk.unlock();
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(
                  race_ms > 0 ? race_ms : 1.0));
          continue;  // re-evaluate: the queues may have drained meanwhile
        }
      }
      // A step boundary: requests join up to max_batch running, own queue
      // first, then stolen. Nothing waits for more to arrive.
      while (running.size() + joined.size() <
                 static_cast<size_t>(cfg_.max_batch) &&
             pop_one_locked(self, joined, &steals)) {
      }
      depth = total_queued_;
      if (!joined.empty()) {
        depth_gauge.set(static_cast<double>(depth));
        stats_.steals += steals;
        self.stats.steals += steals;
      }
    }
    stolen.inc(steals);
    // More requests may remain; let another worker pick them up.
    if (depth > 0) queue_cv_.notify_one();
    advance(self, batches, running, joined, depth);
  }
}

void ReceiverServer::advance(Worker& self, Batches& batches,
                             std::list<Running>& running,
                             std::vector<Request>& joined, size_t depth) {
  static obs::Counter& governor_sheds = obs::counter("serve.governor.sheds");
  static obs::Gauge& governor_steps = obs::gauge("serve.governor.steps");
  static obs::Histogram& batch_size =
      obs::histogram("serve.batch_size", {1, 2, 4, 8, 16, 32, 64});
  if (running.empty() && joined.empty()) return;

  // Bind the running requests' identity to this thread for the boundary:
  // every span that closes on it — serve.batch below, and the model's own
  // conditioner / ddim_step / decode spans — is stamped with their ids and
  // this worker's index, whether the requests were routed here or stolen.
  obs::TraceContext ctx;
  ctx.worker = self.index;
  for (const Running& r : running) {
    ctx.request_ids.push_back(r.req.rec.request_id);
  }
  for (const Request& r : joined) ctx.request_ids.push_back(r.rec.request_id);
  DCDIFF_FAULT_CONTEXT(ctx.request_ids, self.index);
  obs::ScopedTraceContext trace_ctx(std::move(ctx));
  DCDIFF_TRACE_SPAN("serve.batch");

  // Fault site: stall this worker with the popped requests claimed (out of
  // every queue, not yet running). Sleeping here pushes them toward their
  // deadlines and leaves siblings to absorb the backlog — the "one slow
  // worker" failure mode.
  double stall_ms = 0;
  if (!joined.empty() &&
      DCDIFF_FAULT_POINT_P("serve.worker.stall", &stall_ms)) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        stall_ms > 0 ? stall_ms : 5.0));
  }

  // Admission: each request's own step target (the governor sheds steps of
  // latency-tier requests only), options, conditioner and noise rows, in
  // this worker's batch of its padded size.
  uint64_t sheds = 0;
  const size_t already_running = running.size();
  for (Request& q : joined) {
    q.rec.model_us = obs::trace_now_us();
    int target = full_steps_;
    if (q.tier == QosTier::kLatency && governor_.enabled()) {
      target = governor_.plan_steps(depth);
      governor_steps.set(static_cast<double>(target));
      if (target < full_steps_) {
        governor_sheds.inc();
        ++sheds;
      }
    }
    // Fault site: skew the clock this request's deadline is judged by
    // (positive param = milliseconds into the future), the way a stale or
    // stepped clock would. Zero when injection is off or the site is
    // silent.
    double skew_ms = 0;
    (void)DCDIFF_FAULT_POINT_P("serve.deadline.skew", &skew_ms);
    core::ReconstructOptions opts = cfg_.recon;
    opts.ddim_steps = target;
    if (q.tile) {
      // Crop-consistent noise so tiles match the untiled field; global
      // postprocess (corner anchoring, AC projection) runs at the stitch.
      // FMPP's per-sample scalars are ill-defined on crops — off for tiles.
      opts.coord_noise = true;
      opts.postprocess = false;
      opts.use_fmpp = false;
    }
    Running& r = running.emplace_back();
    r.req = std::move(q);
    r.target = target;
    r.skew_us = 1e3 * skew_ms;
    try {
      const std::pair<int, int> size =
          core::RunningBatch::padded_size(r.req.coeffs);
      auto it = std::find_if(
          batches.begin(), batches.end(), [&](const auto& b) {
            return std::make_pair(b->height(), b->width()) == size;
          });
      if (it == batches.end()) {
        batches.push_back(std::make_unique<core::RunningBatch>(
            *model_, cfg_.max_batch, ensemble_, size.first, size.second));
        it = std::prev(batches.end());
      }
      r.batch = it->get();
      r.id = r.batch->admit({&r.req.coeffs, r.req.noise_x0, r.req.noise_y0},
                            opts);
    } catch (const std::exception& e) {
      finish_running(self, r.req, rejected(Status::internal(e.what())));
      running.pop_back();
    }
  }
  for (auto it = std::next(running.begin(),
                           static_cast<long>(already_running));
       it != running.end(); ++it) {
    it->req.rec.batch_size = static_cast<int>(running.size());
  }

  // One step of every batch, each row at its own request's timestep. A
  // failed step fails the requests of its batch and no others.
  uint64_t steps = 0;
  for (const auto& batch : batches) {
    if (batch->size() == 0) continue;
    batch_size.observe(static_cast<double>(batch->size()));
    try {
      batch->step();
      ++steps;
    } catch (const std::exception& e) {
      for (auto it = running.begin(); it != running.end();) {
        if (it->batch != batch.get()) {
          ++it;
          continue;
        }
        batch->drop(it->id);
        finish_running(self, it->req, rejected(Status::internal(e.what())));
        it = running.erase(it);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.batches += steps;
    self.stats.batches += steps;
    stats_.governor_sheds += sheds;
  }

  // Per-request decisions. A progressive request whose consumer already
  // destroyed its ResultStream has nobody left to deliver partials to: the
  // Request here holds the channel's only reference, so its checkpoints
  // are not decoded (the terminal Result still goes through push_result:
  // it fulfils the submit_future promise and the accounting contract).
  // use_count is advisory under concurrency, but the only other owner is
  // the consumer handle, and a stale read costs one harmless partial.
  const auto abandoned = [](const std::shared_ptr<detail::StreamState>& s) {
    return s.use_count() <= 1;
  };
  for (auto it = running.begin(); it != running.end();) {
    Running& r = *it;
    Request& q = r.req;
    const int done = r.batch->steps_done(r.id);
    bool leave = done == r.target;
    if (!leave && q.rec.deadline_ms > 0 && done >= cfg_.min_steps) {
      leave = deadline_us(q.rec) < obs::trace_now_us() + r.skew_us;
    }
    const int interval = cfg_.partial_interval > 0
                             ? cfg_.partial_interval
                             : std::max(1, r.target / 3);
    try {
      if (leave) {
        Image image = r.batch->retire(r.id);
        finish_running(self, q, finished(std::move(image), done, full_steps_));
        it = running.erase(it);
        continue;
      }
      if (q.delivery == DeliveryMode::kProgressive && done % interval == 0) {
        if (abandoned(q.stream)) {
          q.suppressed = true;
        } else {
          double proxy = 0;
          Image image = r.batch->checkpoint(r.id, &proxy);
          obs::trace_emit("serve.partial", obs::trace_now_us(), 0,
                          request_context(q.rec));
          ++q.partials;
          detail::push_partial(q.stream,
                               Partial{std::move(image), done, proxy});
        }
      }
      ++it;
    } catch (const std::exception& e) {
      if (!leave) r.batch->drop(r.id);  // a retired request has left
      finish_running(self, q, rejected(Status::internal(e.what())));
      it = running.erase(it);
    }
  }

  // An emptied batch goes: an idle worker holds no row buffers.
  std::erase_if(batches, [](const auto& b) { return b->size() == 0; });
}

void ReceiverServer::finish_running(Worker& self, Request& r, Result res) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::erase(self.inflight, r.rec.request_id);
  }
  obs::RequestRecord& rec = r.rec;
  rec.done_us = obs::trace_now_us();
  rec.ddim_steps = full_steps_;
  rec.ensemble = ensemble_;
  finish_request(r, std::move(res));
}

void ReceiverServer::finish_request(Request& r, Result res) {
  // SLO-resolution buckets (see Histogram::slo_latency_bounds for policy).
  static obs::Histogram& e2e = obs::histogram(
      "serve.e2e_seconds", obs::Histogram::slo_latency_bounds());
  static obs::Histogram& queue_wait = obs::histogram(
      "serve.queue_wait_seconds", obs::Histogram::slo_latency_bounds());
  static obs::Counter& completed_ctr = obs::counter("serve.completed");
  static obs::Counter& degraded_ctr = obs::counter("serve.degraded");
  static obs::Counter& internal_ctr = obs::counter("serve.internal_errors");
  static obs::Counter& partials_ctr = obs::counter("serve.partials");
  static obs::Counter& suppressed_ctr =
      obs::counter("serve.partials_suppressed");
  static obs::Counter& p99_violations =
      obs::counter("serve.slo.p99_violations");
  static obs::Counter& miss_violations =
      obs::counter("serve.slo.miss_rate_violations");

  // Stages from the record's own stamps, so they never overlap: queue wait
  // (route -> batch), batch formation (batch -> model), model (model ->
  // done). A request can be answered past its deadline (it expired in the
  // queue or mid-batch): the client gets an image — degraded if the hook
  // cut sampling short — and the SLO books a miss.
  obs::RequestRecord& rec = r.rec;
  rec.e2e_seconds = (rec.done_us - rec.submit_us) * 1e-6;
  rec.queue_wait_seconds = (rec.batch_us - rec.route_us) * 1e-6;
  rec.deadline_missed = deadline_us(rec) < rec.done_us;
  rec.steps_done = res.steps_done;
  rec.degraded = res.outcome == Outcome::kDegraded;
  if (!res.status.is_ok()) rec.status = "internal";
  res.e2e_seconds = rec.e2e_seconds;
  const bool missed = rec.deadline_missed;
  const bool internal_error = !res.status.is_ok();

  // Tile sub-requests roll up into their stitched parent: the flight entry
  // is all they book here.
  const bool logical = r.tile == nullptr;
  if (logical) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (res.outcome == Outcome::kComplete) stats_.completed++;
      if (res.outcome == Outcome::kDegraded) stats_.degraded++;
      if (internal_error) stats_.internal_errors++;
      if (!internal_error) {
        workers_[static_cast<size_t>(rec.worker)]->stats.completed++;
      }
      stats_.partials += r.partials;
      stats_.partials_suppressed += r.suppressed ? 1 : 0;
    }
    if (res.outcome == Outcome::kComplete) completed_ctr.inc();
    if (res.outcome == Outcome::kDegraded) degraded_ctr.inc();
    if (internal_error) internal_ctr.inc();
    partials_ctr.inc(r.partials);
    suppressed_ctr.inc(r.suppressed ? 1 : 0);
    e2e.observe(rec.e2e_seconds);
    queue_wait.observe(rec.queue_wait_seconds);
    // The wait happened in a queue, not on any thread: emitted
    // retroactively under the one request's id and its executing worker.
    obs::trace_emit("serve.queue_wait", rec.route_us,
                    rec.batch_us - rec.route_us, request_context(rec));
    // Degraded answers are not goodput: the client got an image, but not
    // the quality it asked for — serve.slo.* is where that shows up.
    slo_.record(rec.e2e_seconds, !internal_error && !missed && !rec.degraded,
                missed, internal_error);
  }
  flight_.record(rec);

  // Booked first, handed on second: a client that sees its result also
  // sees it counted in stats() and in the flight recorder.
  if (logical) {
    detail::push_result(r.stream, std::move(res));
  } else {
    finish_tile(r, std::move(res));
  }
  // The ring already holds this request, so a dump triggered by it shows
  // the full recent history up to and including the offending record.
  if (!cfg_.flight_recorder_path.empty() && (missed || internal_error)) {
    flight_.dump_json(cfg_.flight_recorder_path,
                      missed ? "deadline_miss" : "internal_error");
  }
  if (!logical || (cfg_.slo_p99_ms <= 0 && cfg_.slo_miss_rate_pct <= 0)) {
    return;
  }
  // Edge-triggered threshold checks over the rolling 10s window: one
  // counter bump + warning per excursion, not one per request while the
  // window stays in violation.
  const obs::SloTracker::Window w = slo_.window(10);
  std::lock_guard<std::mutex> lk(slo_mu_);
  if (cfg_.slo_p99_ms > 0) {
    const bool violating = w.p99_seconds * 1000.0 > cfg_.slo_p99_ms;
    if (violating && !p99_violating_) {
      p99_violations.inc();
      DCDIFF_LOG_WARN("serve", "slo_p99_violation",
                      {{"p99_ms", w.p99_seconds * 1000.0},
                       {"threshold_ms", cfg_.slo_p99_ms}});
    }
    p99_violating_ = violating;
  }
  if (cfg_.slo_miss_rate_pct > 0) {
    const bool violating = w.miss_rate * 100.0 > cfg_.slo_miss_rate_pct;
    if (violating && !miss_rate_violating_) {
      miss_violations.inc();
      DCDIFF_LOG_WARN("serve", "slo_miss_rate_violation",
                      {{"miss_rate_pct", w.miss_rate * 100.0},
                       {"threshold_pct", cfg_.slo_miss_rate_pct}});
    }
    miss_rate_violating_ = violating;
  }
}

void ReceiverServer::finish_tile(Request& r, Result res) {
  TileJob& job = *r.tile;
  obs::RequestRecord& parent = job.parent.rec;
  const size_t i = static_cast<size_t>(r.tile_index);
  {
    std::lock_guard<std::mutex> lk(job.mu);
    // The parent's batch and model stamps are the earliest of its tiles'.
    const bool first = job.remaining == job.images.size();
    parent.batch_us = first ? r.rec.batch_us
                            : std::min(parent.batch_us, r.rec.batch_us);
    parent.model_us = first ? r.rec.model_us
                            : std::min(parent.model_us, r.rec.model_us);
    job.images[i] = std::move(res.image);
    job.tile_workers[i] = r.rec.worker;
    job.tile_steps[i] = res.steps_done;
    if (!res.status.is_ok() && job.error.is_ok()) job.error = res.status;
    if (--job.remaining > 0) return;
  }

  // Last tile in: stitch on this worker's thread (its pool partition is
  // bound, so the blend/anchor loops run on this worker's cores too).
  Result out = rejected(job.error);
  if (job.error.is_ok()) {
    try {
      DCDIFF_TRACE_SPAN("serve.stitch");
      out = finished(stitch_tiles(job.parent.coeffs, job.layout, job.images),
                     *std::min_element(job.tile_steps.begin(),
                                       job.tile_steps.end()),
                     full_steps_);
      out.tile_workers = job.tile_workers;
    } catch (const std::exception& e) {
      out = rejected(Status::internal(e.what()));
    }
  }
  parent.worker = r.rec.worker;  // the stitching worker
  parent.batch_size = static_cast<int>(job.layout.tiles.size());
  parent.ddim_steps = full_steps_;
  parent.done_us = obs::trace_now_us();
  finish_request(job.parent, std::move(out));
}

void ReceiverServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      bool joined = true;
      for (const auto& w : workers_) joined = joined && !w->thread.joinable();
      if (joined) return;
    }
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    snap_stop_ = true;
  }
  snap_cv_.notify_all();
  if (snap_thread_.joinable()) snap_thread_.join();
  refresh_slo_gauges();
  if (!cfg_.stats_path.empty()) dump_stats(cfg_.stats_path);
  if (!cfg_.flight_recorder_path.empty()) {
    dump_flight_recorder(cfg_.flight_recorder_path, "shutdown");
  }
  DCDIFF_LOG_INFO("serve", "server_stop",
                  {{"completed", static_cast<int64_t>(stats_.completed)},
                   {"degraded", static_cast<int64_t>(stats_.degraded)},
                   {"batches", static_cast<int64_t>(stats_.batches)},
                   {"steals", static_cast<int64_t>(stats_.steals)}});
}

ReceiverServer::Stats ReceiverServer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats out = stats_;
  out.queue_depth = total_queued_;
  out.workers.clear();
  out.workers.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerStats ws = w->stats;
    ws.queue_depth = w->queue.size();
    out.workers.push_back(ws);
  }
  return out;
}

void ReceiverServer::snapshot_loop() {
  std::unique_lock<std::mutex> lk(snap_mu_);
  for (;;) {
    snap_cv_.wait_for(lk, std::chrono::milliseconds(cfg_.stats_interval_ms),
                      [&] { return snap_stop_; });
    if (snap_stop_) return;
    lk.unlock();
    refresh_slo_gauges();
    if (!cfg_.stats_path.empty()) dump_stats(cfg_.stats_path);
    lk.lock();
  }
}

void ReceiverServer::refresh_slo_gauges() const {
  static obs::Gauge& goodput10 = obs::gauge("serve.slo.goodput_10s");
  static obs::Gauge& p99_10 = obs::gauge("serve.slo.p99_seconds_10s");
  static obs::Gauge& miss10 = obs::gauge("serve.slo.miss_rate_10s");
  static obs::Gauge& goodput60 = obs::gauge("serve.slo.goodput_60s");
  static obs::Gauge& p99_60 = obs::gauge("serve.slo.p99_seconds_60s");
  static obs::Gauge& miss60 = obs::gauge("serve.slo.miss_rate_60s");
  const obs::SloTracker::Window w10 = slo_.window(10);
  const obs::SloTracker::Window w60 = slo_.window(60);
  goodput10.set(w10.goodput);
  p99_10.set(w10.p99_seconds);
  miss10.set(w10.miss_rate);
  goodput60.set(w60.goodput);
  p99_60.set(w60.p99_seconds);
  miss60.set(w60.miss_rate);
}

std::string ReceiverServer::server_state_json() const {
  std::string out = "{";
  {
    std::lock_guard<std::mutex> lk(mu_);
    out += "\"accepted\":" + std::to_string(stats_.accepted);
    out += ",\"completed\":" + std::to_string(stats_.completed);
    out += ",\"degraded\":" + std::to_string(stats_.degraded);
    out += ",\"partials\":" + std::to_string(stats_.partials);
    out += ",\"partials_suppressed\":" +
           std::to_string(stats_.partials_suppressed);
    out += ",\"tiles\":" + std::to_string(stats_.tiles);
    out += ",\"governor_sheds\":" + std::to_string(stats_.governor_sheds);
    out += ",\"internal_errors\":" + std::to_string(stats_.internal_errors);
    out += ",\"rejected_queue_full\":" +
           std::to_string(stats_.rejected_queue_full);
    out += ",\"rejected_decode\":" + std::to_string(stats_.rejected_decode);
    out += ",\"rejected_shutdown\":" +
           std::to_string(stats_.rejected_shutdown);
    out += ",\"batches\":" + std::to_string(stats_.batches);
    out += ",\"steals\":" + std::to_string(stats_.steals);
    out += ",\"sessions_opened\":" + std::to_string(stats_.sessions_opened);
    out += ",\"queue_depth\":" + std::to_string(total_queued_);
    out += std::string(",\"stopping\":") + (stopping_ ? "true" : "false");
    out += ",\"workers\":[";
    for (size_t i = 0; i < workers_.size(); ++i) {
      const Worker& w = *workers_[i];
      if (i > 0) out += ',';
      out += "{\"index\":" + std::to_string(w.index);
      out += ",\"queue_depth\":" + std::to_string(w.queue.size());
      out += ",\"inflight\":[";
      for (size_t j = 0; j < w.inflight.size(); ++j) {
        if (j > 0) out += ',';
        out += std::to_string(w.inflight[j]);
      }
      out += "],\"batches\":" + std::to_string(w.stats.batches);
      out += ",\"completed\":" + std::to_string(w.stats.completed);
      out += ",\"steals\":" + std::to_string(w.stats.steals);
      out += ",\"pool_busy_seconds\":" + obs::json_number(pool_busy_seconds(w.pool.get()));
      out += "}";
    }
    out += "]";
  }
  // These take their own locks; called outside mu_ so no lock nests inside
  // another.
  out += ",\"slo\":" + slo_.windows_json();
  out += ",\"flight_recorder\":{\"capacity\":" +
         std::to_string(flight_.capacity()) +
         ",\"size\":" + std::to_string(flight_.size()) +
         ",\"total_recorded\":" + std::to_string(flight_.total_recorded()) +
         "}";
  out += "}";
  return out;
}

std::string ReceiverServer::stats_json() const {
  return obs::stats_json(server_state_json());
}

std::string ReceiverServer::stats_prometheus() const {
  std::string extra;
  const auto add_worker_family = [&](const char* leaf, const char* type,
                                     auto value_of) {
    extra += std::string("# TYPE dcdiff_serve_worker_") + leaf + " " + type +
             "\n";
    for (const auto& w : workers_) {
      extra += std::string("dcdiff_serve_worker_") + leaf + "{worker=\"" +
               std::to_string(w->index) + "\"} " + value_of(*w) + "\n";
    }
  };
  {
    std::lock_guard<std::mutex> lk(mu_);
    add_worker_family("queue_depth", "gauge", [](const Worker& w) {
      return std::to_string(w.queue.size());
    });
    add_worker_family("inflight", "gauge", [](const Worker& w) {
      return std::to_string(w.inflight.size());
    });
    add_worker_family("batches_total", "counter", [](const Worker& w) {
      return std::to_string(w.stats.batches);
    });
    add_worker_family("completed_total", "counter", [](const Worker& w) {
      return std::to_string(w.stats.completed);
    });
    add_worker_family("steals_total", "counter", [](const Worker& w) {
      return std::to_string(w.stats.steals);
    });
    add_worker_family("pool_busy_seconds_total", "counter", [](const Worker& w) {
      return obs::json_number(pool_busy_seconds(w.pool.get()));
    });
  }
  const obs::SloTracker::Window w10 = slo_.window(10);
  const obs::SloTracker::Window w60 = slo_.window(60);
  const auto add_slo_family = [&](const char* leaf, double v10, double v60) {
    extra += std::string("# TYPE dcdiff_serve_slo_") + leaf + " gauge\n";
    extra += std::string("dcdiff_serve_slo_") + leaf + "{window=\"10s\"} " +
             obs::json_number(v10) + "\n";
    extra += std::string("dcdiff_serve_slo_") + leaf + "{window=\"60s\"} " +
             obs::json_number(v60) + "\n";
  };
  add_slo_family("goodput", w10.goodput, w60.goodput);
  add_slo_family("p99_seconds", w10.p99_seconds, w60.p99_seconds);
  add_slo_family("deadline_miss_rate", w10.miss_rate, w60.miss_rate);
  return obs::stats_prometheus(extra);
}

bool ReceiverServer::dump_stats(const std::string& path) const {
  const std::string json = stats_json();
  const std::string prom = stats_prometheus();
  std::ofstream jf(path, std::ios::trunc);
  if (!jf) return false;
  jf << json << "\n";
  std::ofstream pf(path + ".prom", std::ios::trunc);
  if (!pf) return false;
  pf << prom;
  return static_cast<bool>(jf) && static_cast<bool>(pf);
}

obs::SloTracker::Window ReceiverServer::slo_window(int seconds) const {
  return slo_.window(seconds);
}

bool ReceiverServer::dump_flight_recorder(const std::string& path,
                                          const std::string& reason) const {
  return flight_.dump_json(path, reason);
}

}  // namespace dcdiff::serve

#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <limits>
#include <thread>
#include <utility>

#include "jpeg/codec.h"
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

double elapsed_seconds(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

ServerConfig ServerConfig::from_env() {
  ServerConfig cfg;
  cfg.max_batch = obs::env_int("DCDIFF_SERVE_MAX_BATCH", cfg.max_batch);
  cfg.batch_timeout_ms =
      obs::env_int("DCDIFF_SERVE_BATCH_TIMEOUT_MS", cfg.batch_timeout_ms);
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
  return ResultStream(server_->submit(id_, req));
}

std::future<Result> Session::submit_future(const ReconstructRequest& req) {
  return server_->submit(id_, req)->terminal.get_future();
}

Result Session::reconstruct(const ReconstructRequest& req) {
  return submit(req).wait();
}

uint64_t Session::submitted() const {
  std::lock_guard<std::mutex> lk(server_->mu_);
  for (const auto& [sid, count] : server_->session_submits_) {
    if (sid == id_) return count;
  }
  return 0;
}

ReceiverServer::ReceiverServer(const ServerConfig& cfg,
                               std::shared_ptr<const core::DCDiffModel> model)
    : cfg_(cfg),
      model_(std::move(model)),
      flight_(static_cast<size_t>(std::max(1, cfg.flight_recorder_size))) {
  cfg_.max_batch = std::max(1, cfg_.max_batch);
  cfg_.queue_capacity = std::max(1, cfg_.queue_capacity);
  cfg_.workers = std::max(1, cfg_.workers);
  cfg_.batch_timeout_ms = std::max(0, cfg_.batch_timeout_ms);
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
  cfg_.min_steps = std::min(cfg_.min_steps, full_steps_);
  governor_ = StepGovernor(StepGovernor::Config{
      full_steps_, cfg_.min_steps, cfg_.governor_depth_per_step});
  DCDIFF_LOG_INFO("serve", "server_start",
                  {{"max_batch", cfg_.max_batch},
                   {"batch_timeout_ms", cfg_.batch_timeout_ms},
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
    w->model = i == 0 ? model_ : core::DCDiffModel::replicate(model_);
    if (!pools.empty()) w->pool = std::move(pools[static_cast<size_t>(i)]);
    w->depth_gauge =
        &obs::gauge(obs::indexed("serve.worker", i, "queue_depth"));
    w->batch_counter = &obs::counter(obs::indexed("serve.worker", i, "batches"));
    w->steal_counter = &obs::counter(obs::indexed("serve.worker", i, "steals"));
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
  session_submits_.emplace_back(id, 0);
  stats_.sessions_opened++;
  return Session(this, id);
}

const core::DCDiffModel& ReceiverServer::worker_model(int i) const {
  return *workers_.at(static_cast<size_t>(i))->model;
}

void ReceiverServer::note_session_submit(uint64_t session_id) {
  for (auto& [sid, count] : session_submits_) {
    if (sid == session_id) {
      ++count;
      return;
    }
  }
}

int ReceiverServer::route_locked(int hint) const {
  const int n = static_cast<int>(workers_.size());
  if (hint >= 0) return hint % n;
  int best = 0;
  size_t best_load = std::numeric_limits<size_t>::max();
  for (int i = 0; i < n; ++i) {
    const Worker& w = *workers_[static_cast<size_t>(i)];
    const size_t load = w.queue.size() + (w.busy ? 1 : 0);
    if (load < best_load) {
      best_load = load;
      best = i;
    }
  }
  return best;
}

std::shared_ptr<detail::StreamState> ReceiverServer::submit(
    uint64_t session_id, const ReconstructRequest& req) {
  static obs::Counter& accepted = obs::counter("serve.accepted");
  static obs::Counter& rejected_decode = obs::counter("serve.rejected_decode");
  static obs::Counter& rejected_full = obs::counter("serve.rejected_queue_full");
  static obs::Counter& rejected_shutdown =
      obs::counter("serve.rejected_shutdown");
  static obs::Counter& tiles_ctr = obs::counter("serve.tiles");
  static obs::Gauge& depth = obs::gauge("serve.queue_depth");

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

  const auto now = Clock::now();
  const auto deadline = req.deadline_ms > 0
                            ? now + std::chrono::milliseconds(req.deadline_ms)
                            : Clock::time_point::max();
  const double submit_us = obs::trace_now_us();

  std::lock_guard<std::mutex> lk(mu_);
  note_session_submit(session_id);
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

  const auto enqueue = [&](Request r, int hint) {
    // Ids are assigned at acceptance, under mu_, so they are process-unique
    // and monotone in acceptance order (rejected submits consume none).
    r.request_id = next_request_id_++;
    const int target = route_locked(hint);
    r.routed_worker = target;
    r.route_us = obs::trace_now_us();
    Worker& w = *workers_[static_cast<size_t>(target)];
    w.queue.push_back(std::move(r));
    ++total_queued_;
    w.depth_gauge->set(static_cast<double>(w.queue.size()));
  };

  if (!layout.tiled()) {
    Request r;
    r.coeffs = std::move(coeffs);
    r.stream = state;
    r.enqueued = now;
    r.deadline = deadline;
    r.session_id = session_id;
    r.tier = req.tier;
    r.delivery = req.delivery;
    r.deadline_ms = std::max(0, req.deadline_ms);
    r.submit_us = submit_us;
    enqueue(std::move(r), req.worker_hint);
  } else {
    auto job = std::make_shared<TileJob>();
    job->layout = layout;
    job->images.resize(layout.tiles.size());
    job->tile_workers.assign(layout.tiles.size(), -1);
    job->tile_steps.assign(layout.tiles.size(), 0);
    job->remaining = layout.tiles.size();
    job->stream = state;
    job->session_id = session_id;
    job->request_id = next_request_id_++;  // the logical request's id
    job->enqueued = now;
    job->deadline = deadline;
    job->deadline_ms = std::max(0, req.deadline_ms);
    job->submit_us = submit_us;
    for (size_t i = 0; i < layout.tiles.size(); ++i) {
      const TileSpec& spec = layout.tiles[i];
      Request r;
      r.coeffs = extract_tile(coeffs, spec);
      r.enqueued = now;
      r.deadline = deadline;
      r.session_id = session_id;
      r.tier = req.tier;
      // Partials are a whole-image contract; tiles deliver final-only.
      r.delivery = DeliveryMode::kFinalOnly;
      r.tile = job;
      r.tile_index = static_cast<int>(i);
      // Latent grid is pixel / 4; crop origins are MCU-aligned so this is
      // exact. Coordinate-seeded noise then reproduces the untiled field.
      r.noise_x0 = spec.cx0 / 4;
      r.noise_y0 = spec.cy0 / 4;
      r.deadline_ms = std::max(0, req.deadline_ms);
      r.submit_us = submit_us;
      // Tiles always route least-loaded: the point of the fan-out is to
      // land siblings on distinct workers.
      enqueue(std::move(r), -1);
    }
    job->full = std::move(coeffs);
    stats_.tiles += layout.tiles.size();
    tiles_ctr.inc(static_cast<uint64_t>(layout.tiles.size()));
  }

  stats_.accepted++;
  stats_.queue_depth = total_queued_;
  depth.set(static_cast<double>(total_queued_));
  depth.set_max(static_cast<double>(total_queued_));
  accepted.inc();
  // All workers wake: the routed worker takes its request; an idle worker
  // whose queue stayed empty may steal it if the routed one is busy.
  queue_cv_.notify_all();
  return state;
}

bool ReceiverServer::pop_one_locked(Worker& self, std::vector<Request>& batch,
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
  batch.push_back(std::move(source->queue.front()));
  source->queue.pop_front();
  batch.back().stolen = source != &self;
  batch.back().batch_us = obs::trace_now_us();
  --total_queued_;
  source->depth_gauge->set(static_cast<double>(source->queue.size()));
  return true;
}

void ReceiverServer::worker_loop(int index) {
  static obs::Gauge& depth = obs::gauge("serve.queue_depth");
  Worker& self = *workers_[static_cast<size_t>(index)];
  // Bind this thread's partition: every parallel loop in the model forward
  // now runs on this worker's disjoint thread set. The driving thread pins
  // itself to the partition's first CPU; the pool's workers occupy the rest.
  nn::PoolBinding pool_binding(self.pool.get());
  if (self.pool && self.pool->cpu_first() >= 0) {
    nn::pin_current_thread_to_cpu(self.pool->cpu_first());
  }
  for (;;) {
    std::vector<Request> batch;
    uint64_t steals = 0;
    size_t depth_at_pop = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_cv_.wait(lk, [&] { return stopping_ || total_queued_ > 0; });
      if (total_queued_ == 0) return;  // stopping_ and every queue drained
      // Fault site: widen the wake->pop race. Dropping the lock here lets
      // a sibling worker steal the request this thread was woken for, the
      // interleaving the steal path exists to survive.
      double race_ms = 0;
      if (DCDIFF_FAULT_POINT_P("serve.steal_race.delay", &race_ms)) {
        lk.unlock();
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            race_ms > 0 ? race_ms : 1.0));
        lk.lock();
        continue;  // re-evaluate: the queues may have drained meanwhile
      }
      if (!pop_one_locked(self, batch, &steals)) continue;
      // Microbatch window: hold the batch open briefly so concurrent
      // submitters coalesce into one reconstruct_batch call. Own queue
      // first; steal only when it runs dry.
      const auto window_end =
          Clock::now() + std::chrono::milliseconds(cfg_.batch_timeout_ms);
      while (static_cast<int>(batch.size()) < cfg_.max_batch) {
        if (pop_one_locked(self, batch, &steals)) continue;
        if (stopping_ || cfg_.batch_timeout_ms <= 0) break;
        if (!queue_cv_.wait_until(lk, window_end, [&] {
              return stopping_ || total_queued_ > 0;
            })) {
          break;  // window closed with a partial batch
        }
      }
      self.busy = true;
      self.inflight.clear();
      for (const Request& r : batch) self.inflight.push_back(r.request_id);
      depth_at_pop = total_queued_;
      stats_.queue_depth = total_queued_;
      depth.set(static_cast<double>(total_queued_));
    }
    // More requests may remain; let another worker pick them up while this
    // batch runs.
    queue_cv_.notify_one();
    run_batch(self, batch, steals, depth_at_pop);
    {
      std::lock_guard<std::mutex> lk(mu_);
      self.busy = false;
      self.inflight.clear();
    }
  }
}

void ReceiverServer::run_batch(Worker& self, std::vector<Request>& batch,
                               uint64_t steals, size_t depth_at_pop) {
  static obs::Histogram& batch_size =
      obs::histogram("serve.batch_size", {1, 2, 4, 8, 16, 32, 64});
  // SLO-resolution buckets (see Histogram::slo_latency_bounds for policy).
  static obs::Histogram& e2e = obs::histogram(
      "serve.e2e_seconds", obs::Histogram::slo_latency_bounds());
  static obs::Histogram& queue_wait = obs::histogram(
      "serve.queue_wait_seconds", obs::Histogram::slo_latency_bounds());
  static obs::Counter& completed = obs::counter("serve.completed");
  static obs::Counter& internal = obs::counter("serve.internal_errors");
  static obs::Counter& stolen = obs::counter("serve.steals");
  static obs::Counter& degraded_ctr = obs::counter("serve.degraded");
  static obs::Counter& partials_ctr = obs::counter("serve.partials");
  static obs::Counter& suppressed_ctr =
      obs::counter("serve.partials_suppressed");
  static obs::Counter& governor_sheds = obs::counter("serve.governor.sheds");
  static obs::Gauge& governor_steps = obs::gauge("serve.governor.steps");

  // Bind the batch's identity to this thread for the rest of the call:
  // every span that closes on it — serve.batch below, and the model's own
  // conditioner / ddim_step / decode spans — is stamped with the batch's
  // request ids and this worker's index, whether the requests were routed
  // here or stolen. Queue-wait spans are emitted retroactively per request
  // (the wait happened in the queue, not on any thread) under a context of
  // that one id plus the executing worker.
  obs::TraceContext batch_ctx;
  batch_ctx.worker = self.index;
  for (const Request& r : batch) batch_ctx.request_ids.push_back(r.request_id);
  DCDIFF_FAULT_CONTEXT(batch_ctx.request_ids, self.index);
  obs::ScopedTraceContext trace_ctx(std::move(batch_ctx));
  DCDIFF_TRACE_SPAN("serve.batch");
  for (const Request& r : batch) {
    obs::TraceContext one;
    one.worker = self.index;
    one.request_ids.push_back(r.request_id);
    obs::trace_emit("serve.queue_wait", r.route_us, r.batch_us - r.route_us,
                    obs::intern_trace_context(std::move(one)));
  }

  // Fault site: stall this worker with the batch already claimed (busy is
  // set, the requests are out of every queue). Sleeping here pushes the
  // batch toward its deadlines and leaves siblings to absorb the backlog —
  // the "one slow replica" failure mode.
  double stall_ms = 0;
  if (DCDIFF_FAULT_POINT_P("serve.worker.stall", &stall_ms)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(stall_ms > 0 ? stall_ms : 5.0));
  }
  // Fault site: skew the clock this batch uses to judge deadline expiry
  // (positive param = milliseconds into the future), the way a stale or
  // stepped clock would. Zero when injection is off or the site is silent.
  Clock::duration skew{};
  double skew_ms = 0;
  if (DCDIFF_FAULT_POINT_P("serve.deadline.skew", &skew_ms)) {
    skew = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(skew_ms));
  }

  const auto start = Clock::now() + skew;
  for (const Request& r : batch) {
    queue_wait.observe(elapsed_seconds(r.enqueued, start));
  }
  stolen.inc(steals);
  self.steal_counter->inc(steals);
  batch_size.observe(static_cast<double>(batch.size()));
  self.batch_counter->inc();

  bool all_latency = true;
  for (const Request& r : batch) {
    all_latency = all_latency && r.tier == QosTier::kLatency;
  }
  // Load shedding: only batches made entirely of latency-tier requests are
  // governed; a single kQuality request pins the batch at full steps.
  int planned_steps = full_steps_;
  if (all_latency && governor_.enabled()) {
    planned_steps = governor_.plan_steps(depth_at_pop);
  }
  governor_steps.set(static_cast<double>(planned_steps));
  const bool shed = planned_steps < full_steps_;
  if (shed) governor_sheds.inc();

  const auto all_expired = [skew](const std::vector<Request*>& g) {
    const auto now = Clock::now() + skew;
    for (const Request* r : g) {
      if (r->deadline >= now) return false;
    }
    return true;
  };
  // A progressive request whose consumer already destroyed its
  // ResultStream has nobody left to deliver partials to: the Request here
  // holds the channel's only reference. Such requests neither justify
  // checkpoint decodes for the group nor receive pushes — the terminal
  // Result still goes through push_result (it fulfils the submit_future
  // promise and the accounting contract). use_count is advisory under
  // concurrency, but the only other owner is the consumer handle, and a
  // stale read costs one harmless partial.
  const auto abandoned = [](const std::shared_ptr<detail::StreamState>& s) {
    return s.use_count() <= 1;
  };
  const int interval = cfg_.partial_interval > 0
                           ? cfg_.partial_interval
                           : std::max(1, planned_steps / 3);

  // Three model calls at most. Plain requests split on whether they need
  // the per-step hook: a progressive request streams partials, and a
  // deadline may stop sampling at the min_steps floor. All groups run on
  // the same compiled plans; the split exists because each hooked group
  // stops only once all of *its* members have expired, so quality
  // requests never pin a doomed sibling to the full step count. Tiles
  // sample coordinate-seeded noise at their crop origins, and get the hook
  // only when one of them carries a deadline. Per-item noise seeding makes
  // group membership numerically irrelevant.
  std::vector<Request*> groups[3];  // plain, plain needing the hook, tiles
  for (Request& r : batch) {
    const bool hooked = r.delivery == DeliveryMode::kProgressive ||
                        r.deadline != Clock::time_point::max();
    groups[r.tile ? 2 : hooked ? 1 : 0].push_back(&r);
  }

  const double model_us = obs::trace_now_us();
  // Per-request outputs, indexed like `batch`. Each request takes the status
  // of its own group's model call.
  std::vector<Image> out_images(batch.size());
  std::vector<int> out_steps(batch.size(), 0);
  std::vector<Status> out_status(batch.size());
  uint64_t n_partials = 0, n_suppressed = 0;
  const auto pos = [&](const Request* r) {
    return static_cast<size_t>(r - batch.data());
  };
  for (const std::vector<Request*>& group : groups) {
    if (group.empty()) continue;
    bool progressive = false, deadline = false;
    for (const Request* r : group) {
      deadline = deadline || r->deadline != Clock::time_point::max();
      if (r->delivery != DeliveryMode::kProgressive) continue;
      if (abandoned(r->stream)) {
        ++n_suppressed;
        continue;
      }
      progressive = true;
    }
    Status status;
    try {
      std::vector<core::AnytimeItem> items;
      items.reserve(group.size());
      for (Request* r : group) {
        items.push_back({&r->coeffs, r->noise_x0, r->noise_y0});
      }
      core::ReconstructOptions opts = cfg_.recon;
      opts.ddim_steps = planned_steps;
      if (group.front()->tile) {
        // Crop-consistent noise so tiles match the untiled field; global
        // postprocess (corner anchoring, AC projection) runs at the stitch.
        // FMPP's per-sample scalars are ill-defined on crops — off for
        // tiles.
        opts.coord_noise = true;
        opts.postprocess = false;
        opts.use_fmpp = false;
      }
      core::AnytimeControl ctrl;
      if (progressive || deadline) {
        ctrl.on_step = [&](int done, int total) {
          if (deadline && done >= cfg_.min_steps && all_expired(group)) {
            return core::AnytimeControl::Action::kStop;
          }
          if (progressive && done < total && done % interval == 0) {
            return core::AnytimeControl::Action::kEmitPartial;
          }
          return core::AnytimeControl::Action::kContinue;
        };
      }
      if (progressive) {
        ctrl.on_partial = [&](int item, Image image, int done,
                              double psnr_proxy) {
          Request* r = group[static_cast<size_t>(item)];
          if (r->delivery != DeliveryMode::kProgressive) return;
          if (abandoned(r->stream)) return;  // consumer vanished mid-batch
          obs::TraceContext one;
          one.worker = self.index;
          one.request_ids.push_back(r->request_id);
          obs::trace_emit("serve.partial", obs::trace_now_us(), 0,
                          obs::intern_trace_context(std::move(one)));
          ++n_partials;
          detail::push_partial(r->stream,
                               Partial{std::move(image), done, psnr_proxy});
        };
      }
      core::AnytimeResult res =
          self.model->reconstruct_batch_anytime(items, opts, ctrl);
      for (size_t k = 0; k < group.size(); ++k) {
        out_images[pos(group[k])] = std::move(res.images[k]);
        out_steps[pos(group[k])] = res.steps_done[k];
      }
    } catch (const std::exception& e) {
      status = Status::internal(e.what());
    }
    for (const Request* r : group) out_status[pos(r)] = status;
  }

  const auto end = Clock::now();
  const double done_us = obs::trace_now_us();
  const int ensemble = cfg_.recon.ensemble > 0
                           ? cfg_.recon.ensemble
                           : self.model->config().sample_ensemble;
  std::vector<Result> results(batch.size());
  std::vector<obs::RequestRecord> records(batch.size());
  uint64_t n_completed = 0, n_internal = 0, n_degraded = 0, n_tile_done = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    Result& res = results[i];
    obs::RequestRecord& rec = records[i];
    rec.request_id = r.request_id;
    rec.session_id = r.session_id;
    rec.worker = self.index;
    rec.routed_worker = r.routed_worker;
    rec.stolen = r.stolen;
    rec.submit_us = r.submit_us;
    rec.route_us = r.route_us;
    rec.batch_us = r.batch_us;
    rec.model_us = model_us;
    rec.done_us = done_us;
    rec.batch_size = static_cast<int>(batch.size());
    rec.ddim_steps = full_steps_;
    rec.ensemble = ensemble;
    rec.deadline_ms = r.deadline_ms;
    rec.tiled = r.tile != nullptr;
    rec.queue_wait_seconds = elapsed_seconds(r.enqueued, start);
    // A request can be answered past its deadline (it expired in the queue
    // or mid-batch): the client gets an image — degraded if the hook cut
    // sampling short — and the SLO books a miss.
    rec.deadline_missed = r.deadline < end;
    if (out_status[i].is_ok()) {
      res.status = Status::ok();
      res.outcome = out_steps[i] < full_steps_ ? Outcome::kDegraded
                                               : Outcome::kComplete;
      res.image = std::move(out_images[i]);
      res.steps_done = out_steps[i];
      res.steps_target = full_steps_;
      rec.steps_done = out_steps[i];
      rec.degraded = res.outcome == Outcome::kDegraded;
      // Tile sub-requests roll up into their stitched parent's outcome
      // (finish_tile); only logical requests count here.
      if (r.tile) {
        ++n_tile_done;
      } else if (rec.degraded) {
        ++n_degraded;
      } else {
        ++n_completed;
      }
    } else {
      res = rejected(out_status[i]);
      rec.status = "internal";
      if (!r.tile) ++n_internal;
    }
    res.e2e_seconds = elapsed_seconds(r.enqueued, end);
    rec.e2e_seconds = res.e2e_seconds;
  }
  completed.inc(n_completed);
  internal.inc(n_internal);
  degraded_ctr.inc(n_degraded);
  partials_ctr.inc(n_partials);
  suppressed_ctr.inc(n_suppressed);
  DCDIFF_LOG_DEBUG("serve", "batch_done",
                   {{"batch", static_cast<int64_t>(batch.size())},
                    {"degraded", static_cast<int64_t>(n_degraded)},
                    {"stolen", static_cast<int64_t>(steals)},
                    {"seconds", elapsed_seconds(start, end)}});

  // Account first, fulfil second: a client that sees its stream ready must
  // also see itself counted in stats().
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.completed += n_completed;
    stats_.degraded += n_degraded;
    stats_.partials += n_partials;
    stats_.partials_suppressed += n_suppressed;
    stats_.internal_errors += n_internal;
    stats_.governor_sheds += shed ? 1 : 0;
    stats_.batches++;
    stats_.steals += steals;
    self.stats.batches++;
    self.stats.completed += n_completed + n_tile_done;
    self.stats.steals += steals;
  }
  // e2e is a per-logical-request latency family; tile sub-requests report
  // through their stitched parent instead (finish_tile observes it there).
  for (size_t i = 0; i < batch.size(); ++i) {
    Request& r = batch[i];
    if (r.tile) {
      finish_tile(self, r, std::move(results[i].image), out_steps[i],
                  full_steps_, results[i].status);
    } else {
      e2e.observe(results[i].e2e_seconds);
      detail::push_result(r.stream, std::move(results[i]));
    }
  }
  for (obs::RequestRecord& rec : records) {
    // Tile sub-request records are flight-only; the stitched parent record
    // (emitted by finish_tile) carries the SLO accounting.
    const bool slo = !rec.tiled;
    finish_request(std::move(rec), slo);
  }
}

void ReceiverServer::finish_tile(Worker& self, Request& r, Image image,
                                 int steps_done, int full_steps,
                                 const Status& status) {
  static obs::Histogram& e2e = obs::histogram(
      "serve.e2e_seconds", obs::Histogram::slo_latency_bounds());
  static obs::Counter& completed_ctr = obs::counter("serve.completed");
  static obs::Counter& degraded_ctr = obs::counter("serve.degraded");
  static obs::Counter& internal_ctr = obs::counter("serve.internal_errors");
  const std::shared_ptr<TileJob>& job = r.tile;
  bool last = false;
  {
    std::lock_guard<std::mutex> lk(job->mu);
    job->images[static_cast<size_t>(r.tile_index)] = std::move(image);
    job->tile_workers[static_cast<size_t>(r.tile_index)] = self.index;
    job->tile_steps[static_cast<size_t>(r.tile_index)] = steps_done;
    if (!status.is_ok() && job->error.is_ok()) job->error = status;
    last = --job->remaining == 0;
  }
  if (!last) return;

  // Last tile in: stitch on this worker's thread (its pool partition is
  // bound, so the blend/anchor loops run on this worker's cores too).
  Result res;
  res.steps_target = full_steps;
  if (job->error.is_ok()) {
    try {
      DCDIFF_TRACE_SPAN("serve.stitch");
      res.image = stitch_tiles(job->full, job->layout, job->images);
      res.status = Status::ok();
      int min_steps_done = full_steps;
      for (int s : job->tile_steps) min_steps_done = std::min(min_steps_done, s);
      res.steps_done = min_steps_done;
      res.outcome = min_steps_done < full_steps ? Outcome::kDegraded
                                                : Outcome::kComplete;
      res.tile_workers = job->tile_workers;
    } catch (const std::exception& e) {
      res = rejected(Status::internal(e.what()));
    }
  } else {
    res = rejected(job->error);
  }
  const auto end = Clock::now();
  res.e2e_seconds = elapsed_seconds(job->enqueued, end);

  obs::RequestRecord rec;
  rec.request_id = job->request_id;
  rec.session_id = job->session_id;
  rec.worker = self.index;  // the stitching worker
  rec.routed_worker = -1;   // fanned out; per-tile records name the queues
  rec.submit_us = job->submit_us;
  rec.done_us = obs::trace_now_us();
  rec.batch_size = static_cast<int>(job->layout.tiles.size());
  rec.ddim_steps = full_steps;
  rec.steps_done = res.steps_done;
  rec.deadline_ms = job->deadline_ms;
  rec.deadline_missed = job->deadline < end;
  rec.degraded = res.outcome == Outcome::kDegraded;
  rec.tiled = true;
  rec.e2e_seconds = res.e2e_seconds;
  if (!res.status.is_ok()) rec.status = "internal";

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (res.outcome == Outcome::kComplete) {
      stats_.completed++;
    } else if (res.outcome == Outcome::kDegraded) {
      stats_.degraded++;
    } else {
      stats_.internal_errors++;
    }
  }
  if (res.outcome == Outcome::kComplete) completed_ctr.inc();
  if (res.outcome == Outcome::kDegraded) degraded_ctr.inc();
  if (res.outcome == Outcome::kRejected) internal_ctr.inc();
  e2e.observe(res.e2e_seconds);
  detail::push_result(job->stream, std::move(res));
  // Account-then-fulfil already held above; the parent is the SLO-visible
  // record for the whole tiled request.
  finish_request(std::move(rec), /*slo_account=*/true);
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

void ReceiverServer::finish_request(obs::RequestRecord rec, bool slo_account) {
  static obs::Counter& p99_violations =
      obs::counter("serve.slo.p99_violations");
  static obs::Counter& miss_violations =
      obs::counter("serve.slo.miss_rate_violations");
  const bool missed = rec.deadline_missed;
  const bool internal_error = rec.status == "internal";
  if (slo_account) {
    // Degraded answers are not goodput: the client got an image, but not
    // the quality it asked for — serve.slo.* is where that shows up.
    slo_.record(rec.e2e_seconds,
                rec.status == "ok" && !missed && !rec.degraded, missed,
                internal_error);
  }
  flight_.record(rec);
  // The ring already holds this request, so a dump triggered by it shows
  // the full recent history up to and including the offending record.
  if (!cfg_.flight_recorder_path.empty() && (missed || internal_error)) {
    flight_.dump_json(cfg_.flight_recorder_path,
                      missed ? "deadline_miss" : "internal_error");
  }
  if (cfg_.slo_p99_ms <= 0 && cfg_.slo_miss_rate_pct <= 0) return;
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
  // Pool pointers are immutable after construction and busy_seconds() is a
  // relaxed atomic read, so no lock is needed here.
  for (const auto& w : workers_) {
    if (!w->pool) continue;
    obs::gauge(obs::indexed("serve.worker", w->index, "pool_busy_seconds"))
        .set(w->pool->busy_seconds());
  }
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
      out += std::string(",\"busy\":") + (w.busy ? "true" : "false");
      out += ",\"inflight\":[";
      for (size_t j = 0; j < w.inflight.size(); ++j) {
        if (j > 0) out += ',';
        out += std::to_string(w.inflight[j]);
      }
      out += "],\"batches\":" + std::to_string(w.stats.batches);
      out += ",\"completed\":" + std::to_string(w.stats.completed);
      out += ",\"steals\":" + std::to_string(w.stats.steals);
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

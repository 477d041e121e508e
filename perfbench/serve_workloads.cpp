// The serve workloads (planned path, final-only) and the mixed serve probe
// of the traced run (anytime, progressive, governor and tiler paths), all
// closed loops.
//
// Both drive serve::ReceiverServer through Session only, time every request
// from the client side, and check every answer afterwards against a direct
// eager reconstruction of the same bitstream.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <random>
#include <thread>

#include "common.h"
#include "jpeg/codec.h"
#include "obs/trace.h"
#include "serve/tiler.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;  // set-ups per run; the median is reported
// One full batch per worker: the warm-up burst.
constexpr int kBurst = kWorkers * kMaxBatch;
// Mixed probe: client threads, each with one request in flight.
constexpr int kMixedClients = 4;
constexpr int kTiledSize = 128;  // mixed probe tiled request images
constexpr int kTiledDistinct = 2;
constexpr double kTolerance = 1e-4;  // served vs eager reference, per pixel
constexpr int kLatencyDeadlineMs = 150;
constexpr int kGovernorDepthPerStep = 2;
constexpr int kTileMaxPx = 64;
constexpr int kTileHaloPx = 16;

serve::TilePolicy tile_policy() {
  serve::TilePolicy p;
  p.max_tile_px = kTileMaxPx;
  p.halo_px = kTileHaloPx;
  return p;
}

struct Inputs {
  std::vector<std::vector<uint8_t>> bytes;  // untiled, kServeSize px
  std::vector<jpeg::CoeffImage> coeffs;
  std::vector<std::vector<uint8_t>> tiled_bytes;  // kTiledSize px
  std::vector<jpeg::CoeffImage> tiled_coeffs;
};

Inputs make_inputs(uint64_t seed, int tiled) {
  Inputs in;
  for (int i = 0; i < kDistinct; ++i) {
    in.coeffs.push_back(
        dc_dropped(source_image(data::DatasetId::kKodak, seed, i, kServeSize)));
    in.bytes.push_back(jpeg::encode_jfif(in.coeffs.back()));
  }
  for (int i = 0; i < tiled; ++i) {
    in.tiled_coeffs.push_back(dc_dropped(
        source_image(data::DatasetId::kUrban100, seed, i, kTiledSize)));
    in.tiled_bytes.push_back(jpeg::encode_jfif(in.tiled_coeffs.back()));
  }
  return in;
}

enum class Kind { kQuality, kLatency, kProgressive, kTiled };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kQuality: return "quality";
    case Kind::kLatency: return "latency";
    case Kind::kProgressive: return "progressive";
    case Kind::kTiled: return "tiled";
  }
  return "?";
}

struct Sample {
  Kind kind = Kind::kQuality;
  int input = 0;     // index into the untiled or tiled inputs
  double send_s = 0;  // submit() entered
  double first_partial_s = -1;
  double done_s = 0;  // terminal Result seen by the client
  int terminals = 0;
  std::vector<int> partial_steps;
  bool partial_dims_ok = true;
  uint64_t partials_dropped = 0;  // displaced in the bounded stream buffer
  serve::Result result;

  double latency_s() const { return done_s - send_s; }
};

serve::ReconstructRequest make_request(const Sample& s, const Inputs& in) {
  serve::ReconstructRequest req;
  req.jfif = s.kind == Kind::kTiled ? in.tiled_bytes[static_cast<size_t>(s.input)]
                                    : in.bytes[static_cast<size_t>(s.input)];
  switch (s.kind) {
    case Kind::kTiled:
      req.tile = tile_policy();
      break;
    case Kind::kLatency:
      req.tier = serve::QosTier::kLatency;
      req.deadline_ms = kLatencyDeadlineMs;
      break;
    case Kind::kProgressive:
      req.delivery = serve::DeliveryMode::kProgressive;
      break;
    case Kind::kQuality:
      break;
  }
  return req;
}

// Request `i` of the mixed probe's seeded sequence. The mix is fixed per block
// of 25 and shuffled per block: 1 tiled, 12 latency-tier with a deadline,
// 6 progressive, 6 quality final-only.
Sample mixed_request(uint64_t seed, uint64_t i) {
  std::mt19937_64 rng(seed * 104729 + i / 25);
  std::vector<Kind> block(1, Kind::kTiled);
  block.insert(block.end(), 12, Kind::kLatency);
  block.insert(block.end(), 6, Kind::kProgressive);
  block.insert(block.end(), 6, Kind::kQuality);
  std::shuffle(block.begin(), block.end(), rng);
  Sample s;
  s.kind = block[i % 25];
  std::mt19937_64 pick(seed * 7919 + i);
  s.input = static_cast<int>(pick() % (s.kind == Kind::kTiled ? kTiledDistinct
                                                               : kDistinct));
  return s;
}

struct Served {
  std::shared_ptr<const core::DCDiffModel> model;
  std::unique_ptr<serve::ReceiverServer> server;
};

// Model construction, server start and the first request (which compiles
// its plan), kSetups times; the last server is kept for the run.
Served set_up(const Inputs& in, const serve::ServerConfig& cfg,
              Report& report) {
  Served s;
  std::vector<double> times;
  for (int k = 0; k < kSetups; ++k) {
    s.server.reset();
    s.model.reset();
    const double t0 = now_s();
    s.model = make_model();
    s.server = std::make_unique<serve::ReceiverServer>(cfg, s.model);
    serve::Session session = s.server->open_session();
    serve::ReconstructRequest req;
    req.jfif = in.bytes[0];
    const serve::Result r = session.reconstruct(req);
    times.push_back(now_s() - t0);
    if (r.outcome != serve::Outcome::kComplete) {
      report.fail("set-up request: " + r.status.to_string());
    }
  }
  report.set("setup_s", median(times));
  return s;
}

// Compiles each worker's plan for every batch size, then sends one burst
// through the server (plus, for the mixed probe, one request of each other
// kind), so lazy set-up is done before timing starts.
void warm_up(serve::ReceiverServer& server, const Inputs& in, bool mixed,
             Report& report) {
  for (int w = 0; w < kWorkers; ++w) {
    for (int n = 1; n <= kMaxBatch; ++n) {
      const std::vector<jpeg::CoeffImage> batch(in.coeffs.begin(),
                                                in.coeffs.begin() + n);
      (void)server.worker_model(w).reconstruct_batch(batch);
    }
  }
  serve::Session session = server.open_session();
  std::vector<serve::ResultStream> streams;
  for (int i = 0; i < kBurst; ++i) {
    serve::ReconstructRequest req;
    req.jfif = in.bytes[static_cast<size_t>(i)];
    streams.push_back(session.submit(req));
  }
  for (const Kind k : {Kind::kTiled, Kind::kLatency, Kind::kProgressive}) {
    if (!mixed) break;
    Sample s;
    s.kind = k;
    streams.push_back(session.submit(make_request(s, in)));
  }
  for (auto& s : streams) {
    if (s.wait().outcome == serve::Outcome::kRejected) {
      report.fail("warm-up request rejected");
    }
  }
}

struct Phase {
  std::vector<Sample> samples;
  std::vector<double> lag_ms;  // client reaction time: answer to next send
  double t0 = 0;
  double since_us = 0;  // trace clock at phase start
  serve::ReceiverServer::Stats before;  // server counters at phase start
};

Phase begin_phase(const serve::ReceiverServer& server) {
  Phase ph;
  ph.before = server.stats();
  ph.since_us = obs::trace_now_us();
  ph.t0 = now_s();
  return ph;
}

void record_spans(const Phase& ph) {
  SpanLog& log = SpanLog::instance();
  if (!log.enabled()) return;
  for (size_t i = 0; i < ph.samples.size(); ++i) {
    const Sample& s = ph.samples[i];
    const uint64_t id = i + 1;
    log.add("serve.request", s.send_s, s.done_s, id);
    if (s.first_partial_s > 0) {
      log.add("serve.first_partial", s.send_s, s.first_partial_s, id);
    }
  }
}

// The serve workloads' loop: `in_flight` final-only kQuality requests kept
// in flight by one generator thread, which polls for completions.
Phase closed_loop(serve::ReceiverServer& server, const Inputs& in,
                  uint64_t seed, double seconds, int in_flight) {
  serve::Session session = server.open_session();
  std::mt19937_64 rng(seed * 7919 + 1);
  std::vector<int> order(in.bytes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::shuffle(order.begin(), order.end(), rng);

  struct Slot {
    bool active = false;
    double freed_s = 0;
    std::future<serve::Result> fut;
    Sample s;
  };
  std::vector<Slot> slots(static_cast<size_t>(in_flight));
  size_t next = 0;
  Phase ph = begin_phase(server);
  const double stop = ph.t0 + seconds;
  for (;;) {
    bool any_active = false;
    for (Slot& sl : slots) {
      if (sl.active &&
          sl.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        sl.s.done_s = now_s();
        sl.s.result = sl.fut.get();
        sl.s.terminals = 1;
        sl.freed_s = sl.s.done_s;
        ph.samples.push_back(std::move(sl.s));
        sl.active = false;
      }
    }
    const double now = now_s();
    for (Slot& sl : slots) {
      if (!sl.active && now < stop) {
        if (sl.freed_s > 0) ph.lag_ms.push_back(1e3 * (now - sl.freed_s));
        sl.s = Sample{};
        sl.s.input = order[next++ % order.size()];
        sl.s.send_s = now_s();
        sl.fut = session.submit_future(make_request(sl.s, in));
        sl.active = true;
      }
      any_active = any_active || sl.active;
    }
    if (!any_active && now >= stop) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  record_spans(ph);
  return ph;
}

// The mixed probe's loop: kMixedClients client threads, each sending the next
// request of the shared seeded sequence and reading its stream to the
// terminal Result (timing every partial) before sending another.
Phase mixed_loop(serve::ReceiverServer& server, const Inputs& in,
                 uint64_t seed, double seconds) {
  serve::Session session = server.open_session();
  std::atomic<uint64_t> next{0};
  std::mutex mu;  // guards ph.samples and ph.lag_ms
  Phase ph = begin_phase(server);
  const double stop = ph.t0 + seconds;
  std::vector<std::thread> clients;
  for (int c = 0; c < kMixedClients; ++c) {
    clients.emplace_back([&] {
      double freed_s = 0;
      while (now_s() < stop) {
        Sample s = mixed_request(seed, next++);
        s.send_s = now_s();
        const double lag_ms = freed_s > 0 ? 1e3 * (s.send_s - freed_s) : -1;
        serve::ResultStream stream = session.submit(make_request(s, in));
        serve::ResultStream::Event ev;
        while (stream.next(&ev)) {
          if (ev.terminal) {
            s.done_s = now_s();
            ++s.terminals;
            s.result = std::move(ev.result);
            continue;
          }
          if (s.first_partial_s < 0) s.first_partial_s = now_s();
          s.partial_steps.push_back(ev.partial.step);
          s.partial_dims_ok = s.partial_dims_ok &&
                              ev.partial.image.width() == kServeSize &&
                              ev.partial.image.height() == kServeSize;
        }
        s.partials_dropped = stream.dropped_partials();
        freed_s = s.done_s;
        std::lock_guard<std::mutex> lk(mu);
        if (lag_ms >= 0) ph.lag_ms.push_back(lag_ms);
        ph.samples.push_back(std::move(s));
      }
    });
  }
  for (auto& t : clients) t.join();
  record_spans(ph);
  return ph;
}

// ---- correctness oracle (runs after timing) ----

std::vector<Image> eager_reference(const core::DCDiffModel& model,
                                   const std::vector<jpeg::CoeffImage>& coeffs) {
  ScopedSpan span("core.reconstruct_batch.eager");
  core::set_plan_enabled(0);
  std::vector<Image> out = model.reconstruct_batch(coeffs);
  core::set_plan_enabled(-1);
  return out;
}

// The tiled path through the public tiler: per-tile anytime sampling with
// coordinate noise and postprocess deferred, then stitch_tiles.
Image tiled_reference(const core::DCDiffModel& model,
                      const jpeg::CoeffImage& full, double* stitch_ms) {
  const serve::TileLayout layout = serve::plan_tiles(full, tile_policy());
  std::vector<jpeg::CoeffImage> tiles;
  for (const auto& t : layout.tiles) tiles.push_back(serve::extract_tile(full, t));
  std::vector<core::AnytimeItem> items;
  for (size_t i = 0; i < tiles.size(); ++i) {
    items.push_back({&tiles[i], layout.tiles[i].cx0 / 4, layout.tiles[i].cy0 / 4});
  }
  core::ReconstructOptions opts;
  opts.coord_noise = true;
  opts.postprocess = false;
  opts.use_fmpp = false;
  const core::AnytimeResult res =
      model.reconstruct_batch_anytime(items, opts, core::AnytimeControl{});
  ScopedSpan span("serve.stitch_tiles");
  const double t0 = now_s();
  Image img = serve::stitch_tiles(full, layout, res.images);
  *stitch_ms = 1e3 * (now_s() - t0);
  return img;
}

void check_phase(const Phase& ph, const core::DCDiffModel& model,
                 const Inputs& in, Report& report) {
  const int target = model.config().ddim_steps;
  std::vector<Image> ref;
  std::vector<Image> tiled_ref(in.tiled_coeffs.size());
  std::vector<double> stitch;
  for (size_t i = 0; i < ph.samples.size(); ++i) {
    const Sample& s = ph.samples[i];
    const std::string tag = "request " + std::to_string(i) + ": ";
    ++report.attempted;
    if (s.terminals != 1) {
      report.fail(tag + std::to_string(s.terminals) + " terminal results");
      continue;
    }
    const serve::Result& r = s.result;
    if (r.outcome == serve::Outcome::kRejected) {
      report.fail(tag + "rejected: " + r.status.to_string());
      continue;
    }
    const bool tiled = s.kind == Kind::kTiled;
    const int size = tiled ? kTiledSize : kServeSize;
    if (r.image.width() != size || r.image.height() != size ||
        !all_finite(r.image)) {
      report.fail(tag + "wrong dimensions or non-finite pixels");
      continue;
    }
    if (r.steps_done < 1 || r.steps_done > target || r.steps_target != target) {
      report.fail(tag + "steps_done outside [min_steps, target]");
      continue;
    }
    if (!s.partial_dims_ok ||
        !std::is_sorted(s.partial_steps.begin(), s.partial_steps.end()) ||
        std::adjacent_find(s.partial_steps.begin(), s.partial_steps.end()) !=
            s.partial_steps.end()) {
      report.fail(tag + "partials out of order or misshapen");
      continue;
    }
    if (r.outcome == serve::Outcome::kDegraded) continue;  // shape-checked
    if (!tiled) {
      if (ref.empty()) ref = eager_reference(model, in.coeffs);
      const double d = max_abs_diff(r.image, ref[static_cast<size_t>(s.input)]);
      if (d > kTolerance) {
        report.fail(tag + "differs from eager reference by " + std::to_string(d));
      }
      continue;
    }
    Image& t = tiled_ref[static_cast<size_t>(s.input)];
    if (t.empty()) {
      double ms = 0;
      t = tiled_reference(model, in.tiled_coeffs[static_cast<size_t>(s.input)], &ms);
      stitch.push_back(ms);
    }
    const double d = max_abs_diff(r.image, t);
    if (d > kTolerance) {
      report.fail(tag + "tiled result differs from reference by " +
                  std::to_string(d));
    }
  }
  if (!stitch.empty()) report.set("serve.stitch_ms", median(stitch));
}

// End-to-end metrics of one phase (e2e_* over untiled requests); returns
// the median latency.
double put_phase(const Phase& ph, Report& report) {
  std::vector<double> lat;
  double last_done = ph.t0;
  int answered = 0;
  for (const Sample& s : ph.samples) {
    if (s.terminals != 1 || s.result.outcome == serve::Outcome::kRejected) continue;
    ++answered;
    last_done = std::max(last_done, s.done_s);
    if (s.kind != Kind::kTiled) lat.push_back(1e3 * s.latency_s());
  }
  report.set("throughput_img_s",
             last_done > ph.t0 ? answered / (last_done - ph.t0) : 0);
  report.set("e2e_p50_ms", percentile(lat, 0.5));
  report.set("e2e_p90_ms", percentile(lat, 0.9));
  report.info["latency_samples"] = std::to_string(lat.size());
  // Latency by request kind, to explain the aggregate.
  for (const Kind k : {Kind::kQuality, Kind::kLatency, Kind::kProgressive,
                       Kind::kTiled}) {
    std::vector<double> by_kind;
    for (const Sample& s : ph.samples) {
      if (s.kind == k && s.terminals == 1) by_kind.push_back(1e3 * s.latency_s());
    }
    if (by_kind.empty()) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "n=%zu p50=%.1f p90=%.1f max=%.1f",
                  by_kind.size(), percentile(by_kind, 0.5),
                  percentile(by_kind, 0.9), percentile(by_kind, 1.0));
    report.info[std::string("latency_ms.") + kind_name(k)] = buf;
  }
  return percentile(lat, 0.5);
}

// Per-layer serve metrics of one phase: queue, batch and model time from the
// flight recorder's records of requests submitted in it, the steals it
// added, and the client's reaction time.
void serve_layer_metrics(const serve::ReceiverServer& server, const Phase& ph,
                         Report& report) {
  std::vector<double> wait, form, model, batch;
  for (const obs::RequestRecord& r : server.flight_recorder().snapshot()) {
    if (r.submit_us < ph.since_us || r.status != "ok") continue;
    if (r.tiled && r.routed_worker < 0) continue;  // stitched parent record
    wait.push_back(1e3 * r.queue_wait_seconds);
    form.push_back((r.model_us - r.batch_us) / 1e3);
    model.push_back((r.done_us - r.model_us) / 1e3);
    batch.push_back(r.batch_size);
  }
  report.set("serve.queue_wait_ms.p50", percentile(wait, 0.5));
  report.set("serve.queue_wait_ms.p90", percentile(wait, 0.9));
  report.set("serve.batch_form_ms.p50", percentile(form, 0.5));
  report.set("serve.model_ms.p50", percentile(model, 0.5));
  report.set("serve.batch_size_mean", mean(batch));
  report.set("serve.steals",
             static_cast<double>(server.stats().steals - ph.before.steals));
  report.set("bench.gen_lag_ms.p90", percentile(ph.lag_ms, 0.9));
}

// Outcomes of the mixed traffic: tiled latency, time to first partial,
// degradation, steps run, and the tiler, partial and governor counters.
void mixed_layer_metrics(const serve::ReceiverServer& server, const Phase& ph,
                         Report& report) {
  std::vector<double> tiled, first_partial, steps;
  int answered = 0, degraded = 0;
  uint64_t dropped = 0;
  for (const Sample& s : ph.samples) {
    dropped += s.partials_dropped;
    if (s.terminals != 1 || s.result.outcome == serve::Outcome::kRejected) continue;
    if (s.kind == Kind::kTiled) {
      tiled.push_back(1e3 * s.latency_s());
      continue;
    }
    ++answered;
    degraded += s.result.outcome == serve::Outcome::kDegraded ? 1 : 0;
    steps.push_back(s.result.steps_done);
    if (s.first_partial_s > 0) {
      first_partial.push_back(1e3 * (s.first_partial_s - s.send_s));
    }
  }
  report.set("serve.tiled_e2e_p50_ms", percentile(tiled, 0.5));
  report.set("serve.first_partial_p50_ms", percentile(first_partial, 0.5));
  report.set("serve.degraded_share",
             answered > 0 ? static_cast<double>(degraded) / answered : 0);
  report.set("serve.steps_done_mean", mean(steps));
  const serve::ReceiverServer::Stats st = server.stats();
  report.set("serve.tiles", static_cast<double>(st.tiles - ph.before.tiles));
  report.set("serve.partials_delivered",
             static_cast<double>(st.partials - ph.before.partials));
  report.set("serve.partials_dropped", static_cast<double>(dropped));
  report.set("serve.governor_sheds",
             static_cast<double>(st.governor_sheds - ph.before.governor_sheds));
}

}  // namespace

void probe_serve(const std::shared_ptr<const core::DCDiffModel>& model,
                 uint64_t seed, bool all, Report& report) {
  const Inputs in = make_inputs(seed, kTiledDistinct);
  serve::ReceiverServer server(server_config(kGovernorDepthPerStep), model);
  Report probe;
  warm_up(server, in, true, probe);
  const Phase ph = mixed_loop(server, in, seed, 4.0);
  mixed_layer_metrics(server, ph, report);
  if (all) serve_layer_metrics(server, ph, report);
  check_phase(ph, *model, in, probe);
  report.set("serve.stitch_ms", probe.metrics["serve.stitch_ms"]);
  if (probe.failed > 0) report.fail("serve probe: " + probe.errors.front());
}

void run_serve(const Options& opt, int in_flight, Report& report) {
  const Inputs in = make_inputs(opt.seed, 0);
  Served sv = set_up(in, server_config(0), report);
  sender_bpp(in.coeffs, report);
  warm_up(*sv.server, in, false, report);

  const Phase a = closed_loop(*sv.server, in, opt.seed, opt.seconds, in_flight);
  const double p50_untraced = put_phase(a, report);
  report.set("peak_rss_mb", peak_rss_mb());
  check_phase(a, *sv.model, in, report);
  if (!opt.trace) return;

  SpanLog::instance().enable(true);
  obs::set_trace_file(opt.out_dir + "/program.trace.json");
  const Phase b = closed_loop(*sv.server, in, opt.seed, opt.seconds, in_flight);
  obs::flush_trace();
  obs::set_trace_file("");
  Report traced;
  report.set("bench.trace_overhead_pct",
             100.0 * (put_phase(b, traced) / p50_untraced - 1.0));
  serve_layer_metrics(*sv.server, b, report);
  check_phase(b, *sv.model, in, report);
  sv.server->shutdown();
  probe_serve(sv.model, opt.seed, /*all=*/false, report);
  probe_gemm_ledger(report);
  probe_core(sv.model, opt.seed, report);
  probe_codec_layers(opt.seed, report);
}

}  // namespace perfbench

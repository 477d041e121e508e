// Tests for the introspection layer: snapshot serialization (JSON +
// Prometheus), the rolling-window SLO tracker, the per-request flight
// recorder, and request-scoped trace-context propagation through the
// sharded serving engine.
//
// The load-bearing properties:
//   * Snapshots taken while every metric type is being mutated concurrently
//     are always well-formed (never torn into invalid JSON / exposition).
//   * The Prometheus exposition follows the text format: TYPE lines,
//     cumulative `le` buckets ending at +Inf == _count.
//   * The flight recorder is a true ring: capacity bounds memory, snapshot
//     returns the newest records oldest-first across wraparound.
//   * TraceContext propagates across queue hand-off and work stealing: every
//     span on a request's path carries its request_id and the index of the
//     worker that executed it, including stolen requests.
//
// Runs under the `concurrency` CTest label; a TSan build (-DDCDIFF_TSAN=ON)
// exercises the same binary for data races.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace dcdiff {
namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream f(p);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---- bucket policy ----

TEST(SloLatencyBounds, CoverSubMillisecondToTenSeconds) {
  const std::vector<double> b = obs::Histogram::slo_latency_bounds();
  ASSERT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.front(), 1e-4);  // 100us: resolves light-load queue waits
  EXPECT_DOUBLE_EQ(b.back(), 30.0);   // overflow catch-all past the deadline horizon
  for (size_t i = 1; i < b.size(); ++i) {
    EXPECT_LT(b[i - 1], b[i]) << "bounds must be strictly increasing";
  }
  // 1-2-5 within each decade: every bound is 1, 2, or 5 times a power of 10
  // (10.0 and 30.0 close the range).
  bool has_10ms = false, has_1s = false;
  for (const double v : b) {
    if (v == 1e-2) has_10ms = true;
    if (v == 1.0) has_1s = true;
  }
  EXPECT_TRUE(has_10ms);
  EXPECT_TRUE(has_1s);
}

// ---- flight recorder ----

TEST(FlightRecorder, RingWrapsOldestFirst) {
  obs::FlightRecorder fr(8);
  EXPECT_EQ(fr.capacity(), 8u);
  EXPECT_EQ(fr.size(), 0u);
  for (uint64_t i = 1; i <= 20; ++i) {
    obs::RequestRecord r;
    r.request_id = i;
    r.e2e_seconds = static_cast<double>(i) * 0.001;
    fr.record(r);
  }
  EXPECT_EQ(fr.size(), 8u);
  EXPECT_EQ(fr.total_recorded(), 20u);
  const std::vector<obs::RequestRecord> snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // The 8 newest records, oldest -> newest: 13..20.
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].request_id, 13u + i);
  }
}

TEST(FlightRecorder, PartialFillSnapshotsInOrder) {
  obs::FlightRecorder fr(16);
  for (uint64_t i = 1; i <= 5; ++i) {
    obs::RequestRecord r;
    r.request_id = i;
    fr.record(r);
  }
  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].request_id, i + 1);
  }
}

TEST(FlightRecorder, DumpJsonIsWellFormed) {
  const auto path = std::filesystem::temp_directory_path() /
                    "dcdiff_test_flight_dump.json";
  obs::FlightRecorder fr(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    obs::RequestRecord r;
    r.request_id = i;
    r.status = i == 6 ? "deadline_exceeded" : "ok";
    r.deadline_missed = i == 6;
    fr.record(r);
  }
  ASSERT_TRUE(fr.dump_json(path.string(), "deadline_miss"));
  const std::string text = read_file(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(obs::json_validate(text)) << text;
  EXPECT_NE(text.find("\"reason\":\"deadline_miss\""), std::string::npos);
  EXPECT_NE(text.find("\"deadline_missed\":true"), std::string::npos);
}

TEST(FlightRecorder, RequestRecordJsonValidates) {
  obs::RequestRecord r;
  r.request_id = 42;
  r.session_id = 7;
  r.worker = 2;
  r.routed_worker = 0;
  r.stolen = true;
  r.status = "ok";
  const std::string j = obs::request_record_json(r);
  EXPECT_TRUE(obs::json_validate(j)) << j;
  EXPECT_NE(j.find("\"stolen\":true"), std::string::npos);
}

// ---- SLO tracker ----

TEST(SloTracker, WindowAggregatesOutcomes) {
  obs::SloTracker slo(60);
  for (int i = 0; i < 20; ++i) slo.record(0.010, true, false, false);
  for (int i = 0; i < 4; ++i) slo.record(0.500, false, true, false);
  slo.record(0.050, false, false, true);  // internal error
  // Degraded (e.g. governor-shed) and on time: not ok, not missed, and not
  // an error either.
  slo.record(0.020, false, false, false);
  const obs::SloTracker::Window w = slo.window(10);
  EXPECT_EQ(w.completed, 26u);
  EXPECT_EQ(w.ok, 20u);
  EXPECT_EQ(w.deadline_missed, 4u);
  EXPECT_EQ(w.errors, 1u);
  EXPECT_NEAR(w.miss_rate, 4.0 / 26.0, 1e-9);
  EXPECT_GT(w.goodput, 0.0);
  // p99 over {20 x 10ms, 1 x 20ms, 4 x 500ms, 1 x 50ms}: must land in the
  // bucket holding the 500ms mass ((0.5, 1.0] — values equal to a bound go
  // to the next bucket), far above the 10ms bulk.
  EXPECT_GE(w.p99_seconds, 0.5);
  EXPECT_LE(w.p99_seconds, 1.0);
}

// The window p99 lies within the samples: 100 requests of 12 ms read p99
// 12 ms, not the 19.9 ms that interpolating toward the (10, 20] ms bucket's
// upper edge gives, which would trip a 15 ms p99 SLO.
TEST(SloTracker, P99StaysWithinObservedRange) {
  obs::SloTracker slo(60);
  for (int i = 0; i < 100; ++i) slo.record(0.012, true, false, false);
  EXPECT_DOUBLE_EQ(slo.window(10).p99_seconds, 0.012);
}

TEST(SloTracker, WindowsJsonValidates) {
  obs::SloTracker slo(60);
  slo.record(0.010, true, false, false);
  const std::string j = slo.windows_json();
  EXPECT_TRUE(obs::json_validate(j)) << j;
  EXPECT_NE(j.find("\"10s\""), std::string::npos);
  EXPECT_NE(j.find("\"60s\""), std::string::npos);
}

// ---- exposition formats under concurrent mutation ----

// Line-level grammar check for the Prometheus text format: every line is a
// comment ("# ...") or "<name>[{labels}] <value>" with a legal metric name.
void expect_valid_prometheus(const std::string& text) {
  std::stringstream ss(text);
  std::string line;
  int lines = 0;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    ++lines;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << "bad comment: " << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    ASSERT_FALSE(name.empty()) << line;
    for (const char ch : name) {
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
      EXPECT_TRUE(ok) << "bad metric name char in: " << line;
    }
    EXPECT_FALSE(value.empty()) << line;
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "bad value in: " << line;
  }
  EXPECT_GT(lines, 0);
}

TEST(StatsExposition, SnapshotsStayWellFormedUnderConcurrentMutation) {
  obs::counter("test.stats.counter");
  obs::gauge("test.stats.gauge");
  obs::histogram("test.stats.hist", obs::Histogram::slo_latency_bounds());
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 3; ++t) {
    mutators.emplace_back([t, &stop] {
      obs::Counter& c = obs::counter("test.stats.counter");
      obs::Gauge& g = obs::gauge("test.stats.gauge");
      obs::Histogram& h = obs::histogram("test.stats.hist");
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc();
        g.set(static_cast<double>(i % 97));
        h.observe(1e-4 * static_cast<double>((t + 1) * (1 + i % 1000)));
        ++i;
      }
    });
  }
  for (int iter = 0; iter < 25; ++iter) {
    const std::string j = obs::stats_json();
    ASSERT_TRUE(obs::json_validate(j)) << "iteration " << iter;
    expect_valid_prometheus(obs::stats_prometheus());
  }
  stop.store(true);
  for (auto& t : mutators) t.join();
}

TEST(StatsExposition, PrometheusHistogramBucketsAreCumulative) {
  obs::Histogram& h = obs::histogram("test.stats.cumhist", {0.1, 0.2, 0.5});
  h.reset();
  h.observe(0.05);
  h.observe(0.15);
  h.observe(0.15);
  h.observe(0.3);
  h.observe(9.0);  // overflow
  const std::string text = obs::stats_prometheus();
  // Pull this family's lines back out and check the cumulative contract.
  std::stringstream ss(text);
  std::string line;
  std::vector<uint64_t> cum;
  uint64_t count = 0, inf = 0;
  while (std::getline(ss, line)) {
    if (line.rfind("dcdiff_test_stats_cumhist_bucket{le=\"+Inf\"} ", 0) == 0) {
      inf = std::strtoull(line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10);
    } else if (line.rfind("dcdiff_test_stats_cumhist_bucket", 0) == 0) {
      cum.push_back(
          std::strtoull(line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10));
    } else if (line.rfind("dcdiff_test_stats_cumhist_count ", 0) == 0) {
      count = std::strtoull(line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10);
    }
  }
  ASSERT_EQ(cum.size(), 3u);
  EXPECT_EQ(cum[0], 1u);  // <= 0.1
  EXPECT_EQ(cum[1], 3u);  // <= 0.2
  EXPECT_EQ(cum[2], 4u);  // <= 0.5
  EXPECT_EQ(inf, 5u);     // everything
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(inf, count) << "+Inf bucket must equal _count";
}

TEST(StatsExposition, JsonSplicesServerSection) {
  const std::string j = obs::stats_json("{\"custom\":123}");
  ASSERT_TRUE(obs::json_validate(j)) << j;
  EXPECT_NE(j.find("\"server\":{\"custom\":123}"), std::string::npos);
}

// ---- trace-context primitives ----

TEST(TraceContext, DisabledTracingBindsNothing) {
  obs::set_trace_file("");
  obs::TraceContext ctx;
  ctx.worker = 1;
  ctx.request_ids = {5};
  obs::ScopedTraceContext bind(std::move(ctx));
  EXPECT_EQ(bind.id(), -1);
  EXPECT_EQ(obs::current_trace_context_id(), -1);
}

TEST(TraceContext, BindNestAndRender) {
  const auto path = std::filesystem::temp_directory_path() /
                    "dcdiff_test_tracectx.json";
  obs::set_trace_file(path.string());
  obs::clear_trace();
  obs::clear_trace_contexts();
  {
    obs::TraceContext outer;
    outer.worker = 0;
    outer.request_ids = {1, 2};
    obs::ScopedTraceContext o(std::move(outer));
    ASSERT_GE(o.id(), 0);
    EXPECT_EQ(obs::current_trace_context_id(), o.id());
    const std::string args = obs::trace_context_args_json(o.id());
    EXPECT_NE(args.find("\"worker\":0"), std::string::npos);
    EXPECT_NE(args.find("\"request_ids\":[1,2]"), std::string::npos);
    {
      obs::TraceContext inner;
      inner.worker = 2;
      inner.request_ids = {3};
      obs::ScopedTraceContext i(std::move(inner));
      EXPECT_NE(i.id(), o.id());
      EXPECT_EQ(obs::current_trace_context_id(), i.id());
    }
    EXPECT_EQ(obs::current_trace_context_id(), o.id());
  }
  EXPECT_EQ(obs::current_trace_context_id(), -1);
  EXPECT_EQ(obs::trace_context_args_json(-1), "");
  obs::clear_trace();
  obs::clear_trace_contexts();
  obs::set_trace_file("");
  std::filesystem::remove(path);
}

// ---- end-to-end through the serving engine ----

core::DCDiffConfig tiny_config() {
  core::DCDiffConfig cfg;
  cfg.image_size = 32;
  cfg.stage1_steps = 6;
  cfg.stage2_steps = 6;
  cfg.fmpp_steps = 2;
  cfg.batch = 1;
  cfg.ddim_steps = 4;
  cfg.diffusion_T = 50;
  cfg.ae.base = 8;
  cfg.ae.ac_channels = 8;
  cfg.unet.base = 8;
  cfg.unet.temb_dim = 16;
  cfg.ae_tag = "test_obsstats_ae";
  cfg.tag = "test_obsstats";
  return cfg;
}

class ObsStatsServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ =
        std::filesystem::temp_directory_path() / "dcdiff_obsstats_test_cache";
    std::filesystem::create_directories(cache_dir_);
    setenv("DCDIFF_CACHE_DIR", cache_dir_.c_str(), 1);
    model_ = core::ModelPool::instance().get(tiny_config());
  }
  static void TearDownTestSuite() {
    model_.reset();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }

  static std::vector<uint8_t> bitstream(int idx) {
    const Image img = data::dataset_image(data::DatasetId::kKodak, idx, 64);
    return core::sender_encode(img).bytes;
  }

  static std::filesystem::path cache_dir_;
  static std::shared_ptr<const core::DCDiffModel> model_;
};

std::filesystem::path ObsStatsServeTest::cache_dir_;
std::shared_ptr<const core::DCDiffModel> ObsStatsServeTest::model_;

// Every span on a request's path must carry the request's id and the index
// of the worker that executed it — across queue hand-off AND work stealing
// (all requests pinned to worker 0's queue; workers 1 and 2 only see work by
// stealing). Also exercises snapshot-under-load: stats_json /
// stats_prometheus are polled from the client thread mid-serving.
TEST_F(ObsStatsServeTest, TraceContextPropagatesAcrossStealingWorkers) {
  constexpr int kImages = 12;
  const auto trace_path = std::filesystem::temp_directory_path() /
                          "dcdiff_obsstats_trace.json";
  obs::set_trace_file(trace_path.string());
  obs::clear_trace();
  obs::clear_trace_contexts();

  serve::ServerConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;  // no window: stealing, not batching, drains
  cfg.queue_capacity = kImages;
  uint64_t steals = 0;
  {
    serve::ReceiverServer server(cfg, model_);
    serve::Session session = server.open_session();
    serve::ReconstructRequest req;
    req.jfif = bitstream(0);
    req.worker_hint = 0;
    std::vector<std::future<serve::Result>> futs;
    for (int i = 0; i < kImages; ++i) {
      futs.push_back(session.submit_future(req));
    }
    // Live introspection while workers are mid-batch.
    for (int i = 0; i < 5; ++i) {
      const std::string j = server.stats_json();
      ASSERT_TRUE(obs::json_validate(j));
      expect_valid_prometheus(server.stats_prometheus());
    }
    for (auto& f : futs) {
      ASSERT_TRUE(f.get().status.is_ok());
    }
    steals = server.stats().steals;
    EXPECT_GT(steals, 0u) << "hinted skew must force the stealing path";

    // The flight recorder saw every request; stolen ones are flagged with
    // the executing (not routed) worker. A request is booked before its
    // future is fulfilled, so every record is in by now.
    const auto records = server.flight_recorder().snapshot();
    ASSERT_EQ(records.size(), static_cast<size_t>(kImages));
    uint64_t stolen_records = 0;
    for (const auto& r : records) {
      EXPECT_EQ(r.routed_worker, 0);
      EXPECT_GE(r.worker, 0);
      EXPECT_LT(r.worker, 3);
      if (r.stolen) {
        ++stolen_records;
        EXPECT_NE(r.worker, 0) << "a steal executed on the routed worker?";
      }
      EXPECT_GT(r.done_us, r.submit_us);
      EXPECT_GE(r.e2e_seconds, 0.0);
    }
    EXPECT_EQ(stolen_records, steals);
  }
  // Server destroyed: all spans closed. Flush and inspect the trace.
  ASSERT_TRUE(obs::flush_trace());
  const std::string trace = read_file(trace_path);
  ASSERT_TRUE(obs::json_validate(trace));

  // Collect the request ids attributed to serve.batch spans and check the
  // per-request queue-wait spans exist. String-level scan: each event is a
  // flat object, so the fields between two "name" keys belong to one event.
  std::set<uint64_t> batch_ids;
  int queue_wait_spans = 0;
  size_t pos = 0;
  while ((pos = trace.find("\"name\":\"", pos)) != std::string::npos) {
    pos += 8;
    const size_t name_end = trace.find('"', pos);
    const std::string name = trace.substr(pos, name_end - pos);
    const size_t next = trace.find("\"name\":\"", name_end);
    const std::string event = trace.substr(
        name_end, (next == std::string::npos ? trace.size() : next) - name_end);
    if (name == "serve.queue_wait") ++queue_wait_spans;
    if (name == "serve.batch" || name == "serve.queue_wait" ||
        name == "ddim_step" || name == "decode" || name == "conditioner") {
      // Spans on a request's path carry worker index + request ids.
      EXPECT_NE(event.find("\"worker\":"), std::string::npos)
          << name << " span lost its worker index";
      const size_t ids = event.find("\"request_ids\":[");
      EXPECT_NE(ids, std::string::npos) << name << " span lost its ids";
      if (name == "serve.batch" && ids != std::string::npos) {
        size_t p = ids + 15;
        while (p < event.size() && event[p] != ']') {
          char* end = nullptr;
          const uint64_t id = std::strtoull(event.c_str() + p, &end, 10);
          if (end == event.c_str() + p) break;
          batch_ids.insert(id);
          p = static_cast<size_t>(end - event.c_str());
          if (event[p] == ',') ++p;
        }
      }
    }
  }
  EXPECT_EQ(queue_wait_spans, kImages);
  // Every accepted request's id appears on some executed batch span.
  for (uint64_t id = 1; id <= kImages; ++id) {
    EXPECT_TRUE(batch_ids.count(id)) << "request " << id << " left no span";
  }

  obs::clear_trace();
  obs::clear_trace_contexts();
  obs::set_trace_file("");
  std::filesystem::remove(trace_path);
}

// The record is the one ledger of a request: under mixed traffic (plain,
// stolen, progressive, deadline-degraded and tiled) every record's stamps
// are in order, its queue wait and e2e are derived from those stamps alone,
// and the client's Result reports the same e2e as its logical record.
TEST_F(ObsStatsServeTest, EveryRecordIsOneOrderedLedger) {
  serve::ServerConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 2;
  cfg.batch_timeout_ms = 1;
  cfg.queue_capacity = 64;
  cfg.min_steps = 1;
  cfg.partial_interval = 1;
  serve::ReceiverServer server(cfg, model_);
  serve::Session session = server.open_session();
  // Sequential submits from one thread: request ids follow submission
  // order from 1, and the tiled request (last) takes the next id for its
  // parent record.
  std::vector<serve::ResultStream> streams;
  for (int i = 0; i < 8; ++i) {
    serve::ReconstructRequest req;
    req.jfif = bitstream(i % 3);
    req.worker_hint = 0;  // one hot queue: the other workers steal
    if (i == 5) req.delivery = serve::DeliveryMode::kProgressive;
    if (i == 7) req.deadline_ms = 1;  // expires behind the hot queue
    streams.push_back(session.submit(req));
  }
  serve::ReconstructRequest tiled;
  tiled.jfif = bitstream(0);
  tiled.tile.max_tile_px = 32;
  tiled.tile.halo_px = 16;
  streams.push_back(session.submit(tiled));
  std::vector<serve::Result> results;
  for (serve::ResultStream& s : streams) {
    results.push_back(s.wait());
    ASSERT_TRUE(results.back().status.is_ok())
        << results.back().status.to_string();
  }
  EXPECT_EQ(results[7].outcome, serve::Outcome::kDegraded);
  EXPECT_FALSE(results.back().tile_workers.empty());

  const serve::ReceiverServer::Stats stats = server.stats();
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GT(stats.partials, 0u);
  uint64_t worker_completed = 0;
  for (const auto& w : stats.workers) worker_completed += w.completed;
  EXPECT_EQ(worker_completed, stats.completed + stats.degraded);

  const std::vector<obs::RequestRecord> records =
      server.flight_recorder().snapshot();
  ASSERT_EQ(records.size(), stats.accepted + stats.tiles);
  std::vector<const obs::RequestRecord*> by_id(records.size() + 1, nullptr);
  for (const obs::RequestRecord& r : records) {
    EXPECT_LE(r.submit_us, r.route_us) << "request " << r.request_id;
    EXPECT_LE(r.route_us, r.batch_us) << "request " << r.request_id;
    EXPECT_LE(r.batch_us, r.model_us) << "request " << r.request_id;
    EXPECT_LE(r.model_us, r.done_us) << "request " << r.request_id;
    EXPECT_EQ(r.queue_wait_seconds, (r.batch_us - r.route_us) * 1e-6);
    EXPECT_EQ(r.e2e_seconds, (r.done_us - r.submit_us) * 1e-6);
    EXPECT_EQ(r.status, "ok");
    ASSERT_LT(r.request_id, by_id.size());
    by_id[r.request_id] = &r;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    const obs::RequestRecord* rec = by_id[i + 1];
    ASSERT_NE(rec, nullptr) << "no record for submission " << i;
    EXPECT_EQ(results[i].e2e_seconds, rec->e2e_seconds) << "submission " << i;
    EXPECT_EQ(rec->degraded,
              results[i].outcome == serve::Outcome::kDegraded);
  }
  EXPECT_TRUE(by_id[8]->deadline_missed);
  const obs::RequestRecord& parent = *by_id[results.size()];
  EXPECT_TRUE(parent.tiled);
  EXPECT_EQ(parent.routed_worker, -1);
  EXPECT_EQ(static_cast<size_t>(parent.batch_size),
            results.back().tile_workers.size());
  bool any_stolen = false;
  for (const obs::RequestRecord& r : records) any_stolen |= r.stolen;
  EXPECT_TRUE(any_stolen);
}

// The serving histograms must use the documented SLO bucket policy.
TEST_F(ObsStatsServeTest, ServeHistogramsUseSloBounds) {
  // Registered by run_batch during the previous test (or this run's server).
  obs::Histogram& e2e = obs::histogram("serve.e2e_seconds");
  obs::Histogram& qw = obs::histogram("serve.queue_wait_seconds");
  EXPECT_EQ(e2e.bounds(), obs::Histogram::slo_latency_bounds());
  EXPECT_EQ(qw.bounds(), obs::Histogram::slo_latency_bounds());
}

// A deliberately deadline-expired request must trigger an automatic flight
// recorder dump with reason "deadline_miss".
TEST_F(ObsStatsServeTest, DeadlineMissAutoDumpsFlightRecorder) {
  const auto dump_path = std::filesystem::temp_directory_path() /
                         "dcdiff_obsstats_flight.json";
  std::filesystem::remove(dump_path);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.queue_capacity = 8;
  cfg.flight_recorder_path = dump_path.string();
  {
    serve::ReceiverServer server(cfg, model_);
    serve::Session session = server.open_session();
    // The first request occupies the single worker for tens of ms; the
    // rest expire on the queue behind it (1ms deadlines) and come back
    // degraded — the miss is still recorded and still triggers the dump.
    serve::ReconstructRequest req;
    req.jfif = bitstream(0);
    std::vector<std::future<serve::Result>> futs;
    futs.push_back(session.submit_future(req));
    serve::ReconstructRequest expired = req;
    expired.deadline_ms = 1;
    for (int i = 0; i < 4; ++i) {
      futs.push_back(session.submit_future(expired));
    }
    int missed = 0;
    for (auto& f : futs) {
      const serve::Result r = f.get();
      ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
      if (r.outcome == serve::Outcome::kDegraded) ++missed;
    }
    ASSERT_GT(missed, 0) << "test setup failed to expire any request";
    // The dump happens in the worker thread right after the futures are
    // fulfilled; poll briefly rather than racing it.
    bool dumped = false;
    for (int i = 0; i < 200 && !dumped; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const std::string text = read_file(dump_path);
      dumped = obs::json_validate(text) &&
               text.find("\"reason\":\"deadline_miss\"") != std::string::npos;
    }
    EXPECT_TRUE(dumped) << "no deadline_miss flight dump at " << dump_path;
    const auto w = server.slo_window(10);
    EXPECT_GT(w.deadline_missed, 0u);
    EXPECT_GT(w.completed, 0u);
  }
  // Shutdown rewrote the same file with the final state.
  const std::string text = read_file(dump_path);
  ASSERT_TRUE(obs::json_validate(text));
  EXPECT_NE(text.find("\"reason\":\"shutdown\""), std::string::npos);
  EXPECT_NE(text.find("\"deadline_missed\":true"), std::string::npos);
  std::filesystem::remove(dump_path);
}

// The periodic snapshot thread must refresh the serve.slo.* gauges and
// rewrite the stats files on its interval.
TEST_F(ObsStatsServeTest, SnapshotThreadWritesStatsFiles) {
  const auto stats_path = std::filesystem::temp_directory_path() /
                          "dcdiff_obsstats_periodic.json";
  std::filesystem::remove(stats_path);
  std::filesystem::remove(stats_path.string() + ".prom");
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.stats_interval_ms = 20;
  cfg.stats_path = stats_path.string();
  {
    serve::ReceiverServer server(cfg, model_);
    serve::Session session = server.open_session();
    serve::ReconstructRequest req;
    req.jfif = bitstream(0);
    ASSERT_TRUE(session.reconstruct(req).status.is_ok());
    bool wrote = false;
    for (int i = 0; i < 200 && !wrote; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const std::string text = read_file(stats_path);
      wrote = obs::json_validate(text) &&
              text.find("\"server\":") != std::string::npos;
    }
    EXPECT_TRUE(wrote) << "snapshot thread never wrote " << stats_path;
  }
  // Shutdown leaves a final consistent snapshot pair behind.
  const std::string json = read_file(stats_path);
  ASSERT_TRUE(obs::json_validate(json));
  EXPECT_NE(json.find("\"workers\":["), std::string::npos);
  EXPECT_NE(json.find("\"slo\":"), std::string::npos);
  const std::string prom = read_file(stats_path.string() + ".prom");
  expect_valid_prometheus(prom);
  EXPECT_NE(prom.find("dcdiff_serve_worker_queue_depth{worker=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("dcdiff_serve_slo_goodput{window=\"10s\"}"),
            std::string::npos);
  std::filesystem::remove(stats_path);
  std::filesystem::remove(stats_path.string() + ".prom");
}

}  // namespace
}  // namespace dcdiff

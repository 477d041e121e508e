// Fault-injection scenarios for the serving stack (DESIGN §15).
//
// Every test here perturbs the server through named injection sites
// (src/testing/fault.h) and then asserts the serving contracts that must
// survive any fault:
//   * exactly one terminal Result per accepted request — never zero
//     (a hang) and never two;
//   * outcomes stay typed: kComplete / kDegraded / kRejected with a
//     meaningful Status — a fault never surfaces as a crash or a stuck
//     stream;
//   * the server stays healthy after the fault clears (no poisoned
//     worker, no stuck queue slot);
//   * a fault schedule replays exactly from its (seed, plan) pair.
//
// Needs DCDIFF_FAULT_INJECTION=ON (the tsan/sanitize presets); in ordinary
// builds every test skips. Runs under the `fault` CTest label.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "testing/fault.h"

namespace dcdiff::serve {
namespace {

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
  cfg.ae_tag = "test_fault_ae";
  cfg.tag = "test_fault";
  return cfg;
}

class ServeFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
#if defined(DCDIFF_FAULT_INJECTION)
    cache_dir_ =
        std::filesystem::temp_directory_path() / "dcdiff_fault_test_cache";
    std::filesystem::create_directories(cache_dir_);
    setenv("DCDIFF_CACHE_DIR", cache_dir_.c_str(), 1);
    model_ = core::ModelPool::instance().get(tiny_config());
#endif
  }
  static void TearDownTestSuite() {
#if defined(DCDIFF_FAULT_INJECTION)
    model_.reset();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
#endif
  }
  void SetUp() override {
#if !defined(DCDIFF_FAULT_INJECTION)
    GTEST_SKIP() << "built without DCDIFF_FAULT_INJECTION";
#endif
    dcdiff::testing::clear_plan();
  }
  void TearDown() override { dcdiff::testing::clear_plan(); }

  static void install(const std::string& text) {
    dcdiff::testing::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(dcdiff::testing::FaultPlan::parse(text, &plan, &err)) << err;
    dcdiff::testing::install_plan(plan);
  }

  static std::vector<uint8_t> bitstream(int idx) {
    const Image img = data::dataset_image(data::DatasetId::kKodak, idx, 64);
    return core::sender_encode(img).bytes;
  }

  // Drains `stream`, asserting exactly one terminal event arrives and that
  // it arrives last. Returns the terminal Result.
  static Result drain_expect_one_terminal(ResultStream stream) {
    ResultStream::Event ev;
    int terminals = 0;
    Result last;
    while (stream.next(&ev)) {
      if (ev.terminal) {
        ++terminals;
        last = std::move(ev.result);
      } else {
        EXPECT_EQ(terminals, 0) << "partial after the terminal Result";
      }
    }
    EXPECT_EQ(terminals, 1);
    return last;
  }

  static std::filesystem::path cache_dir_;
  static std::shared_ptr<const core::DCDiffModel> model_;
};

std::filesystem::path ServeFaultTest::cache_dir_;
std::shared_ptr<const core::DCDiffModel> ServeFaultTest::model_;

// serve.submit.queue_full: an injected capacity rejection is typed
// kResourceExhausted, and the server accepts again once the site is spent.
TEST_F(ServeFaultTest, InjectedQueueFullRejectsTypedThenRecovers) {
  install("seed=1;serve.submit.queue_full=n1");
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  ReconstructRequest req;
  req.jfif = bitstream(0);
  const Result r1 = session.reconstruct(req);
  EXPECT_EQ(r1.outcome, Outcome::kRejected);
  EXPECT_EQ(r1.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(dcdiff::testing::fault_fires("serve.submit.queue_full"), 1u);

  const Result r2 = session.reconstruct(req);
  ASSERT_TRUE(r2.status.is_ok()) << r2.status.to_string();
  EXPECT_EQ(r2.outcome, Outcome::kComplete);
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// serve.worker.stall: a stalled worker pushes its claimed batch past the
// deadline; with degraded service on, the answer is an early checkpoint
// (kDegraded), never a hang and never an error.
TEST_F(ServeFaultTest, WorkerStallPastDeadlineDegradesNotHangs) {
  install("seed=2;serve.worker.stall=c8@150");
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.min_steps = 1;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  ReconstructRequest req;
  req.jfif = bitstream(0);
  req.deadline_ms = 40;  // the 150ms stall guarantees expiry at batch start
  const Result r = session.reconstruct(req);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::kDegraded);
  EXPECT_GE(r.steps_done, 1);
  EXPECT_LT(r.steps_done, r.steps_target);
  EXPECT_FALSE(r.image.empty());
  EXPECT_GE(dcdiff::testing::fault_fires("serve.worker.stall"), 1u);
}

// serve.deadline.skew: a clock skewed far into the future makes an
// unexpired request look expired. It degrades at the quality floor like any
// expired request — a decodable image after exactly min_steps steps, with
// exactly one terminal.
TEST_F(ServeFaultTest, DeadlineSkewDegradesAtTheFloor) {
  install("seed=3;serve.deadline.skew=c1@60000");
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.min_steps = 1;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  ReconstructRequest req;
  req.jfif = bitstream(0);
  req.deadline_ms = 30000;  // a real 30s budget, "expired" only by the skew
  const Result r = drain_expect_one_terminal(session.submit(req));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::kDegraded);
  EXPECT_EQ(r.steps_done, cfg.min_steps);
  EXPECT_FALSE(r.image.empty());
  EXPECT_EQ(server.stats().degraded, 1u);
}

// core.anytime.checkpoint_throw: a throwing checkpoint callback surfaces
// as a typed internal rejection; the worker survives and serves the next
// request normally.
TEST_F(ServeFaultTest, CheckpointThrowIsTypedInternalThenRecovers) {
  install("seed=4;core.anytime.checkpoint_throw=c64");
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.min_steps = 1;
  cfg.partial_interval = 1;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  ReconstructRequest req;
  req.jfif = bitstream(0);
  req.delivery = DeliveryMode::kProgressive;
  const Result r = drain_expect_one_terminal(session.submit(req));
  EXPECT_EQ(r.outcome, Outcome::kRejected);
  EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  EXPECT_NE(r.status.to_string().find("injected fault"), std::string::npos)
      << r.status.to_string();
  EXPECT_GE(server.stats().internal_errors, 1u);

  dcdiff::testing::clear_plan();
  const Result healthy = session.reconstruct(req);
  ASSERT_TRUE(healthy.status.is_ok()) << healthy.status.to_string();
  EXPECT_EQ(healthy.outcome, Outcome::kComplete);
}

// core.postprocess.fail: same contract for a postprocess failure.
TEST_F(ServeFaultTest, PostprocessFailIsTypedInternalThenRecovers) {
  install("seed=5;core.postprocess.fail=c64");
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.min_steps = 1;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  ReconstructRequest req;
  req.jfif = bitstream(0);
  req.delivery = DeliveryMode::kProgressive;  // anytime path -> decode_to
  const Result r = drain_expect_one_terminal(session.submit(req));
  EXPECT_EQ(r.outcome, Outcome::kRejected);
  EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  EXPECT_GE(dcdiff::testing::fault_fires("core.postprocess.fail"), 1u);

  dcdiff::testing::clear_plan();
  const Result healthy = session.reconstruct(req);
  EXPECT_EQ(healthy.outcome, Outcome::kComplete);
}

// nn.plan.arena_fail: an arena allocation failure inside the compiled plan
// must not reach the client at all — the request completes at full quality
// through the eager fallback, and plan.eager_fallbacks records it.
TEST_F(ServeFaultTest, ArenaFailureFallsBackToEagerAndCompletes) {
  install("seed=6;nn.plan.arena_fail=c64");
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  ReconstructRequest req;
  req.jfif = bitstream(0);  // kQuality final-only: the compiled-plan path
  const Result r = session.reconstruct(req);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::kComplete);
  EXPECT_EQ(r.steps_done, r.steps_target);
  EXPECT_FALSE(r.image.empty());
  EXPECT_GE(dcdiff::testing::fault_fires("nn.plan.arena_fail"), 1u);
  EXPECT_GT(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
}

// serve.steal_race.delay: widening the wake->pop window across 3 workers
// reshuffles who executes what; every stream still gets exactly one
// terminal and every request completes.
TEST_F(ServeFaultTest, StealRacePerturbationKeepsExactlyOneTerminal) {
  install("seed=7;serve.steal_race.delay=p0.5@3");
  constexpr int kRequests = 12;
  ServerConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 2;
  cfg.batch_timeout_ms = 2;
  cfg.queue_capacity = kRequests;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  std::vector<ResultStream> streams;
  for (int i = 0; i < kRequests; ++i) {
    ReconstructRequest req;
    req.jfif = bitstream(i % 3);
    req.tier = i % 2 == 0 ? QosTier::kQuality : QosTier::kLatency;
    streams.push_back(session.submit(req));
  }
  for (auto& s : streams) {
    const Result r = drain_expect_one_terminal(std::move(s));
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_NE(r.outcome, Outcome::kRejected);
    EXPECT_FALSE(r.image.empty());
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.completed + stats.degraded,
            static_cast<uint64_t>(kRequests));
}

// Satellite: destroying a progressive ResultStream while its request is
// in flight neither blocks the worker nor leaks the terminal Result (ASan
// owns the leak check); the server suppresses the now-pointless partial
// decodes and still accounts the request as completed.
TEST_F(ServeFaultTest, AbandonedStreamMidFlightNeitherBlocksNorLeaks) {
  install("seed=8;serve.worker.stall=c1@200");
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.partial_interval = 1;  // would emit after every step if anyone listened
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  {
    ReconstructRequest req;
    req.jfif = bitstream(0);
    req.delivery = DeliveryMode::kProgressive;
    ResultStream s = session.submit(req);
    // The worker has claimed the request and is inside the injected 200ms
    // stall; dropping the handle here abandons the stream mid-flight.
  }
  ReconstructRequest healthy;
  healthy.jfif = bitstream(1);
  const Result r = session.submit_future(healthy).get();
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::kComplete);

  server.shutdown();  // must drain and join without hanging
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);  // the abandoned request still completed
  EXPECT_EQ(stats.partials, 0u);   // nobody listened, nothing was decoded
  EXPECT_GE(stats.partials_suppressed, 1u);
}

// A stalled sibling tile delays the stitch but never dooms it: the last
// tile in triggers stitching and the parent completes with tile fan-out
// metadata intact.
TEST_F(ServeFaultTest, StalledSiblingTileStillStitches) {
  install("seed=9;serve.worker.stall=p0.5@40");
  ServerConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.queue_capacity = 16;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  ReconstructRequest req;
  req.jfif = bitstream(0);  // 64x64 source
  req.tile.max_tile_px = 32;
  req.tile.halo_px = 16;
  req.tile.overlap_px = 8;
  const Result r = drain_expect_one_terminal(session.submit(req));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::kComplete);
  EXPECT_FALSE(r.image.empty());
  EXPECT_EQ(r.tile_workers.size(), 4u);  // 2x2 grid at 32px tiles
  EXPECT_EQ(server.stats().tiles, 4u);
}

// Replay: the same (seed, plan) against the same request sequence on one
// worker reproduces the identical fault schedule, event by event. This is
// the contract that makes any failing soak run reproducible.
TEST_F(ServeFaultTest, FaultScheduleReplaysFromSeedAndPlan) {
  const std::string plan_text =
      "seed=42;serve.worker.stall=p0.4@5;nn.plan.arena_fail=p0.3";
  const auto run = [&] {
    install(plan_text);
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 1;
    cfg.batch_timeout_ms = 0;
    std::vector<std::pair<std::string, uint64_t>> schedule;
    {
      ReceiverServer server(cfg, model_);
      Session session = server.open_session();
      for (int i = 0; i < 6; ++i) {
        ReconstructRequest req;
        req.jfif = bitstream(i % 2);
        const Result r = session.reconstruct(req);
        EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
        EXPECT_EQ(r.outcome, Outcome::kComplete);
      }
    }
    for (const auto& ev : dcdiff::testing::fault_events()) {
      schedule.emplace_back(ev.site, ev.hit);
    }
    dcdiff::testing::clear_plan();
    return schedule;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace dcdiff::serve

// Tests for anytime (checkpointed / early-exit) sampling, the StepGovernor,
// and the progressive ResultStream channel (PR 9).
//
// The load-bearing contracts:
//   * Determinism: reconstruct_batch_anytime run to its full step count
//     with a hook is bit-identical to reconstruct_batch — the checkpoint
//     hook observes z0 between the steps of the one DDIM loop and perturbs
//     no arithmetic.
//   * Early exit: stopping after k < N steps still yields valid (coarser)
//     images, and reports k honestly.
//   * Degraded service: a request whose deadline fires is answered with its
//     best checkpoint (Outcome::kDegraded), never kDeadlineExceeded.
//   * ResultStream: partial steps strictly increasing, terminal Result
//     always last and exactly once, bounded buffer drops oldest partials
//     without ever blocking the producer.
//   * Per-request decisions in a running batch: a deadline request leaves
//     on its own while its batch-mate runs every step, and partials follow
//     each request's own step count; every served image, partial and final,
//     equals its single-request reference byte for byte.
//
// Runs under the `concurrency` CTest label (3-worker progressive test); a
// TSan build exercises the same binary for data races.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "jpeg/codec.h"
#include "serve/governor.h"
#include "serve/server.h"
#include "serve/stream.h"

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
  cfg.ae_tag = "test_anytime_ae";
  cfg.tag = "test_anytime";
  return cfg;
}

class ServeAnytimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ =
        std::filesystem::temp_directory_path() / "dcdiff_anytime_test_cache";
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

  static double max_abs_diff(const Image& a, const Image& b) {
    if (a.width() != b.width() || a.height() != b.height() ||
        a.channels() != b.channels()) {
      return 1e9;
    }
    double m = 0;
    for (int c = 0; c < a.channels(); ++c) {
      const auto& pa = a.plane(c);
      const auto& pb = b.plane(c);
      for (size_t i = 0; i < pa.size(); ++i) {
        m = std::max(m, static_cast<double>(std::fabs(pa[i] - pb[i])));
      }
    }
    return m;
  }

  // The flight recorder's record of request `id`.
  static obs::RequestRecord record_of(const ReceiverServer& server,
                                      uint64_t id) {
    for (const obs::RequestRecord& r : server.flight_recorder().snapshot()) {
      if (r.request_id == id) return r;
    }
    ADD_FAILURE() << "no record for request " << id;
    return {};
  }

  // reconstruct_batch_anytime of one image with `opts`: the partials of a
  // hook that emits every `interval` steps (by step) and the final image
  // of a run stopped after `stop` steps (0: the full chain).
  struct Reference {
    std::vector<std::pair<int, Image>> partials;
    Image image;
  };
  static Reference anytime_reference(const jpeg::CoeffImage& coeffs,
                                     const core::ReconstructOptions& opts,
                                     int interval, int stop) {
    using Action = core::AnytimeControl::Action;
    Reference ref;
    core::AnytimeControl ctrl;
    ctrl.on_step = [&](int done, int total) {
      if (stop > 0 && done >= stop) return Action::kStop;
      return interval > 0 && done < total && done % interval == 0
                 ? Action::kEmitPartial
                 : Action::kContinue;
    };
    ctrl.on_partial = [&](int, Image image, int done, double) {
      ref.partials.emplace_back(done, std::move(image));
    };
    ref.image =
        model_->reconstruct_batch_anytime({{&coeffs, 0, 0}}, opts, ctrl)
            .images[0];
    return ref;
  }

  static std::filesystem::path cache_dir_;
  static std::shared_ptr<const core::DCDiffModel> model_;
};

std::filesystem::path ServeAnytimeTest::cache_dir_;
std::shared_ptr<const core::DCDiffModel> ServeAnytimeTest::model_;

// ---- model layer: checkpointed sampling ----

// The asserted acceptance gate: running the anytime path to its full step
// count — hook installed, never stopping — is bit-identical to
// reconstruct_batch. Both run the same UNet-step and decoder plans; the
// hook only looks at z0 between steps.
TEST_F(ServeAnytimeTest, FullStepAnytimeRunIsBitIdenticalToBatch) {
  const jpeg::CoeffImage c0 = jpeg::decode_jfif(bitstream(0));
  const jpeg::CoeffImage c1 = jpeg::decode_jfif(bitstream(1));

  const std::vector<Image> reference = model_->reconstruct_batch({c0, c1});

  std::vector<core::AnytimeItem> items(2);
  items[0].coeffs = &c0;
  items[1].coeffs = &c1;
  int observed_steps = 0;
  core::AnytimeControl ctrl;
  ctrl.on_step = [&](int done, int total) {
    EXPECT_GT(done, observed_steps);  // monotone, one call per step
    EXPECT_LE(done, total);
    observed_steps = done;
    return core::AnytimeControl::Action::kContinue;
  };
  const core::AnytimeResult res = model_->reconstruct_batch_anytime(
      items, core::ReconstructOptions{}, ctrl);

  ASSERT_EQ(res.images.size(), 2u);
  EXPECT_FALSE(res.early_exit);
  EXPECT_GT(observed_steps, 0);
  for (size_t i = 0; i < res.images.size(); ++i) {
    EXPECT_EQ(res.steps_done[i], model_->config().ddim_steps);
    EXPECT_EQ(max_abs_diff(reference[i], res.images[i]), 0.0) << "image " << i;
  }
}

TEST_F(ServeAnytimeTest, EarlyStopReturnsValidCoarserImages) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  std::vector<core::AnytimeItem> items(1);
  items[0].coeffs = &coeffs;

  core::AnytimeControl ctrl;
  ctrl.on_step = [](int done, int) {
    return done >= 2 ? core::AnytimeControl::Action::kStop
                     : core::AnytimeControl::Action::kContinue;
  };
  const core::AnytimeResult res = model_->reconstruct_batch_anytime(
      items, core::ReconstructOptions{}, ctrl);
  ASSERT_EQ(res.images.size(), 1u);
  EXPECT_TRUE(res.early_exit);
  EXPECT_EQ(res.steps_done[0], 2);
  ASSERT_FALSE(res.images[0].empty());
  const Image full = model_->reconstruct(coeffs);
  EXPECT_EQ(res.images[0].width(), full.width());
  EXPECT_EQ(res.images[0].height(), full.height());
  // Coarser, not garbage: still a plausibly-ranged image.
  EXPECT_GT(max_abs_diff(res.images[0], full), 0.0);
}

TEST_F(ServeAnytimeTest, EmitPartialDeliversMidSamplingCheckpoints) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  std::vector<core::AnytimeItem> items(1);
  items[0].coeffs = &coeffs;

  std::vector<int> partial_steps;
  std::vector<double> proxies;
  core::AnytimeControl ctrl;
  ctrl.on_step = [](int done, int total) {
    return done < total ? core::AnytimeControl::Action::kEmitPartial
                        : core::AnytimeControl::Action::kContinue;
  };
  ctrl.on_partial = [&](int item, Image image, int steps_done,
                        double psnr_proxy) {
    EXPECT_EQ(item, 0);
    EXPECT_FALSE(image.empty());
    partial_steps.push_back(steps_done);
    proxies.push_back(psnr_proxy);
  };
  const core::AnytimeResult res = model_->reconstruct_batch_anytime(
      items, core::ReconstructOptions{}, ctrl);
  EXPECT_FALSE(res.early_exit);
  const int total = model_->config().ddim_steps;
  ASSERT_EQ(partial_steps.size(), static_cast<size_t>(total - 1));
  for (size_t i = 0; i < partial_steps.size(); ++i) {
    EXPECT_EQ(partial_steps[i], static_cast<int>(i) + 1);
    EXPECT_GE(proxies[i], 0.0);
  }
}

// ---- StepGovernor unit behaviour ----

TEST(StepGovernorTest, DisabledWithoutDepthSlope) {
  StepGovernor g({/*full_steps=*/8, /*min_steps=*/2, /*depth_per_step=*/0});
  EXPECT_FALSE(g.enabled());
  EXPECT_EQ(g.plan_steps(0), 8);
  EXPECT_EQ(g.plan_steps(1000), 8);
}

TEST(StepGovernorTest, ShedsOneStepPerDepthUnitDownToFloor) {
  StepGovernor g({/*full_steps=*/8, /*min_steps=*/2, /*depth_per_step=*/2});
  EXPECT_TRUE(g.enabled());
  EXPECT_EQ(g.plan_steps(0), 8);
  EXPECT_EQ(g.plan_steps(1), 8);   // under one slope unit: no shed
  EXPECT_EQ(g.plan_steps(2), 7);
  EXPECT_EQ(g.plan_steps(8), 4);
  EXPECT_EQ(g.plan_steps(1000), 2);  // floored at min_steps
}

TEST(StepGovernorTest, ClampsDegenerateConfigs) {
  StepGovernor g({/*full_steps=*/0, /*min_steps=*/9, /*depth_per_step=*/1});
  EXPECT_EQ(g.plan_steps(0), 1);    // full clamped up to 1
  EXPECT_EQ(g.plan_steps(100), 1);  // min clamped into [1, full]
}

// The floor boundary exactly: at the depth where the shed count reaches
// full - min the governor lands on min_steps precisely, one unit shallower
// it is one step above, and any deeper depth stays pinned at min — never
// below.
TEST(StepGovernorTest, LandsOnMinStepsExactlyAtThresholdDepth) {
  StepGovernor g({/*full_steps=*/8, /*min_steps=*/2, /*depth_per_step=*/2});
  // (full - min) * depth_per_step = 12 is the first depth that reaches min.
  EXPECT_EQ(g.plan_steps(11), 3);
  EXPECT_EQ(g.plan_steps(12), 2);
  EXPECT_EQ(g.plan_steps(13), 2);
  EXPECT_EQ(g.plan_steps(1u << 20), 2);
  for (size_t d = 0; d <= 64; ++d) {
    EXPECT_GE(g.plan_steps(d), 2) << "depth " << d;
  }
}

TEST(StepGovernorTest, PlanStepsIsMonotoneNonIncreasingWithinBounds) {
  StepGovernor g({/*full_steps=*/10, /*min_steps=*/3, /*depth_per_step=*/3});
  int prev = g.plan_steps(0);
  EXPECT_EQ(prev, 10);
  for (size_t d = 1; d <= 128; ++d) {
    const int s = g.plan_steps(d);
    EXPECT_LE(s, prev) << "depth " << d;
    EXPECT_GE(s, 3);
    EXPECT_LE(s, 10);
    prev = s;
  }
  EXPECT_EQ(prev, 3);  // deep enough to have reached the floor
}

// min_steps == full_steps means the governor is a no-op even when enabled:
// there is nothing between the ceiling and the floor to shed.
TEST(StepGovernorTest, MinEqualToFullNeverSheds) {
  StepGovernor g({/*full_steps=*/6, /*min_steps=*/6, /*depth_per_step=*/1});
  EXPECT_TRUE(g.enabled());
  EXPECT_EQ(g.plan_steps(0), 6);
  EXPECT_EQ(g.plan_steps(1), 6);
  EXPECT_EQ(g.plan_steps(1u << 20), 6);
}

// A min_steps of 0 in the raw config clamps to 1: the governor never plans
// a zero-step batch no matter the depth.
TEST(StepGovernorTest, ZeroMinStepsClampsToOneStepFloor) {
  StepGovernor g({/*full_steps=*/4, /*min_steps=*/0, /*depth_per_step=*/1});
  EXPECT_EQ(g.plan_steps(1u << 20), 1);
}

// ---- ResultStream channel semantics ----

TEST(ResultStreamTest, PartialsInOrderThenTerminalExactlyOnce) {
  auto state = std::make_shared<detail::StreamState>();
  state->want_partials = true;
  for (int s = 1; s <= 3; ++s) {
    Partial p;
    p.step = s;
    detail::push_partial(state, std::move(p));
  }
  Result r;
  r.status = Status::ok();
  r.outcome = Outcome::kComplete;
  detail::push_result(state, std::move(r));

  ResultStream stream = ResultStream(state);
  ResultStream::Event ev;
  int last_step = 0;
  int partials = 0;
  bool saw_terminal = false;
  while (stream.next(&ev)) {
    if (ev.terminal) {
      EXPECT_FALSE(saw_terminal);
      saw_terminal = true;
      EXPECT_EQ(ev.result.outcome, Outcome::kComplete);
    } else {
      EXPECT_FALSE(saw_terminal);  // terminal is always last
      EXPECT_GT(ev.partial.step, last_step);
      last_step = ev.partial.step;
      ++partials;
    }
  }
  EXPECT_TRUE(saw_terminal);
  EXPECT_EQ(partials, 3);
  EXPECT_FALSE(stream.next(&ev));  // exhausted stays exhausted
  // wait() after consumption still returns the same terminal Result.
  EXPECT_EQ(stream.wait().outcome, Outcome::kComplete);
}

TEST(ResultStreamTest, BoundedBufferDropsOldestNeverTheResult) {
  auto state = std::make_shared<detail::StreamState>();
  state->want_partials = true;
  state->capacity = 2;
  for (int s = 1; s <= 5; ++s) {
    Partial p;
    p.step = s;
    detail::push_partial(state, std::move(p));
  }
  Result r;
  r.status = Status::ok();
  r.outcome = Outcome::kDegraded;
  detail::push_result(state, std::move(r));

  ResultStream stream = ResultStream(state);
  EXPECT_EQ(stream.dropped_partials(), 3u);
  ResultStream::Event ev;
  ASSERT_TRUE(stream.next(&ev));
  EXPECT_FALSE(ev.terminal);
  EXPECT_EQ(ev.partial.step, 4);  // oldest three displaced
  ASSERT_TRUE(stream.next(&ev));
  EXPECT_EQ(ev.partial.step, 5);
  ASSERT_TRUE(stream.next(&ev));
  EXPECT_TRUE(ev.terminal);
  EXPECT_EQ(ev.result.outcome, Outcome::kDegraded);
}

TEST(ResultStreamTest, FinalOnlyStreamsIgnorePartials) {
  auto state = std::make_shared<detail::StreamState>();
  ASSERT_FALSE(state->want_partials);  // the kFinalOnly default
  Partial p;
  p.step = 1;
  detail::push_partial(state, std::move(p));
  Result r;
  r.status = Status::ok();
  r.outcome = Outcome::kComplete;
  detail::push_result(state, std::move(r));
  ResultStream stream = ResultStream(state);
  ResultStream::Event ev;
  ASSERT_TRUE(stream.next(&ev));
  EXPECT_TRUE(ev.terminal);  // the partial was never buffered
  EXPECT_EQ(stream.dropped_partials(), 0u);
}

// ---- served anytime behaviour ----

// A deadline that fires once sampling is underway must still be answered
// with a decodable image: kDegraded, never kDeadlineExceeded (min_steps >= 1
// checkpoints exist by the time the hook can stop).
TEST_F(ServeAnytimeTest, MidSamplingDeadlineYieldsDegradedImage) {
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  ReconstructRequest req;
  req.jfif = bitstream(0);
  req.deadline_ms = 1;  // expires mid-queue or mid-sampling, never met
  const Result r = session.reconstruct(req);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_NE(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.outcome, Outcome::kDegraded);
  EXPECT_GE(r.steps_done, 1);
  EXPECT_LT(r.steps_done, r.steps_target);
  EXPECT_FALSE(r.image.empty());
  EXPECT_GE(server.stats().degraded, 1u);
}

// A deadline is a per-request decision: of two requests sharing one
// worker's running batch, the one whose deadline passes leaves degraded on
// its own while its batch-mate runs every step. The degraded image equals
// the anytime reference stopped at its step count, the complete one
// reconstruct(x), byte for byte.
TEST_F(ServeAnytimeTest, DeadlineRequestLeavesAloneWhileBatchMateRunsOn) {
  ServerConfig cfg;
  cfg.max_batch = 2;
  cfg.min_steps = 1;
  cfg.recon.ddim_steps = 40;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  ReconstructRequest full_req;
  full_req.jfif = bitstream(0);
  ReconstructRequest doomed_req;
  doomed_req.jfif = bitstream(1);
  doomed_req.deadline_ms = 1;  // passes within the 40-step chain
  ResultStream full_stream = session.submit(full_req);
  ResultStream doomed_stream = session.submit(doomed_req);
  const Result full = full_stream.wait();
  const Result doomed = doomed_stream.wait();
  ASSERT_TRUE(full.status.is_ok()) << full.status.to_string();
  ASSERT_TRUE(doomed.status.is_ok()) << doomed.status.to_string();
  EXPECT_EQ(full.outcome, Outcome::kComplete);
  EXPECT_EQ(full.steps_done, 40);
  EXPECT_EQ(doomed.outcome, Outcome::kDegraded);
  EXPECT_GE(doomed.steps_done, 1);
  EXPECT_LT(doomed.steps_done, 40);

  // They shared steps, and the doomed request left first.
  const obs::RequestRecord a = record_of(server, 1);
  const obs::RequestRecord b = record_of(server, 2);
  EXPECT_LT(b.model_us, a.done_us);
  EXPECT_LT(b.done_us, a.done_us);
  EXPECT_TRUE(b.deadline_missed);
  EXPECT_FALSE(a.deadline_missed);

  core::ReconstructOptions opts;
  opts.ddim_steps = 40;
  EXPECT_EQ(max_abs_diff(full.image, model_->reconstruct(
                                         jpeg::decode_jfif(full_req.jfif),
                                         opts)),
            0.0);
  const Reference ref = anytime_reference(jpeg::decode_jfif(doomed_req.jfif),
                                          opts, 0, doomed.steps_done);
  EXPECT_EQ(max_abs_diff(doomed.image, ref.image), 0.0);
}

// Partials are per request: a progressive request that joins mid-chain
// gets its partials at its own step counts, a final-only batch-mate gets
// none, and every partial and final equals the single-request anytime
// reference at that step byte for byte.
TEST_F(ServeAnytimeTest, PartialsFollowEachRequestsOwnSteps) {
  ServerConfig cfg;
  cfg.max_batch = 3;
  cfg.recon.ddim_steps = 40;
  cfg.partial_interval = 10;  // partials at steps 10, 20 and 30
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  std::vector<ReconstructRequest> reqs(3);
  for (int i = 0; i < 3; ++i) {
    reqs[static_cast<size_t>(i)].jfif = bitstream(i);
  }
  reqs[0].delivery = DeliveryMode::kProgressive;
  reqs[1].delivery = DeliveryMode::kProgressive;
  std::vector<ResultStream> streams;
  streams.push_back(session.submit(reqs[0]));
  ResultStream::Event ev;
  ASSERT_TRUE(streams[0].next(&ev));  // its step-10 partial: mid-chain
  ASSERT_FALSE(ev.terminal);
  std::vector<std::vector<std::pair<int, Image>>> partials(3);
  partials[0].emplace_back(ev.partial.step, std::move(ev.partial.image));
  streams.push_back(session.submit(reqs[1]));
  streams.push_back(session.submit(reqs[2]));
  std::vector<Result> results(3);
  for (size_t i = 0; i < 3; ++i) {
    while (streams[i].next(&ev)) {
      if (ev.terminal) {
        results[i] = std::move(ev.result);
      } else {
        partials[i].emplace_back(ev.partial.step, std::move(ev.partial.image));
      }
    }
    ASSERT_TRUE(results[i].status.is_ok()) << results[i].status.to_string();
    EXPECT_EQ(results[i].outcome, Outcome::kComplete);
  }
  EXPECT_TRUE(partials[2].empty()) << "a final-only request got partials";
  EXPECT_LT(record_of(server, 2).model_us, record_of(server, 1).done_us)
      << "the second request did not join mid-chain";

  core::ReconstructOptions opts;
  opts.ddim_steps = 40;
  for (size_t i = 0; i < 3; ++i) {
    const Reference ref =
        anytime_reference(jpeg::decode_jfif(reqs[i].jfif), opts, 10, 0);
    EXPECT_EQ(max_abs_diff(results[i].image, ref.image), 0.0)
        << "request " << i;
    if (i == 2) continue;
    ASSERT_EQ(partials[i].size(), 3u) << "request " << i;
    for (size_t k = 0; k < partials[i].size(); ++k) {
      EXPECT_EQ(partials[i][k].first, ref.partials[k].first);
      EXPECT_EQ(max_abs_diff(partials[i][k].second, ref.partials[k].second),
                0.0)
          << "request " << i << " partial " << k;
    }
  }
}

// Progressive delivery through a 3-worker server: every stream yields
// strictly increasing partial steps, then exactly one terminal Result; the
// producer never blocks on unread partials (bounded drop-oldest buffer).
TEST_F(ServeAnytimeTest, ProgressiveStreamsOrderedAcrossThreeWorkers) {
  constexpr int kRequests = 6;
  ServerConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 2;
  cfg.queue_capacity = kRequests;
  cfg.partial_interval = 1;  // a partial after every DDIM step
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  std::vector<ResultStream> streams;
  for (int i = 0; i < kRequests; ++i) {
    ReconstructRequest req;
    req.jfif = bitstream(i % 3);
    req.delivery = DeliveryMode::kProgressive;
    streams.push_back(session.submit(req));
  }

  std::atomic<int> total_partials{0};
  std::vector<std::thread> consumers;
  std::vector<int> failures(kRequests, 0);
  for (int i = 0; i < kRequests; ++i) {
    consumers.emplace_back([&, i] {
      ResultStream::Event ev;
      int last_step = 0;
      bool saw_terminal = false;
      while (streams[static_cast<size_t>(i)].next(&ev)) {
        if (ev.terminal) {
          if (saw_terminal || ev.result.outcome != Outcome::kComplete ||
              ev.result.image.empty()) {
            ++failures[static_cast<size_t>(i)];
          }
          saw_terminal = true;
        } else {
          if (saw_terminal || ev.partial.step <= last_step ||
              ev.partial.image.empty()) {
            ++failures[static_cast<size_t>(i)];
          }
          last_step = ev.partial.step;
          ++total_partials;
        }
      }
      if (!saw_terminal) ++failures[static_cast<size_t>(i)];
    });
  }
  for (auto& t : consumers) t.join();
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(failures[static_cast<size_t>(i)], 0) << "stream " << i;
  }
  // partial_interval=1 over ddim_steps=4: up to 3 partials per request
  // (dropped ones excluded from delivery but counted by the server).
  EXPECT_GT(total_partials.load(), 0);
  const auto stats = server.stats();
  EXPECT_GE(stats.partials, static_cast<uint64_t>(total_partials.load()));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
}

// Load shedding: with a 1-step-per-queued-request governor slope and a
// burst of latency-tier requests through one worker, later batches run
// shortened and complete as kDegraded.
TEST_F(ServeAnytimeTest, GovernorShedsStepsUnderLatencyTierBurst) {
  constexpr int kRequests = 8;
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.queue_capacity = kRequests;
  cfg.governor_depth_per_step = 1;
  cfg.min_steps = 2;  // shed batches must stop at this floor, never below
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  std::vector<std::future<Result>> futs;
  for (int i = 0; i < kRequests; ++i) {
    ReconstructRequest req;
    req.jfif = bitstream(0);
    req.tier = QosTier::kLatency;
    futs.push_back(session.submit_future(req));
  }
  int complete = 0, degraded = 0;
  for (auto& f : futs) {
    const Result r = f.get();
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    ASSERT_FALSE(r.image.empty());
    EXPECT_GE(r.steps_done, cfg.min_steps);  // the floor holds under load
    if (r.outcome == Outcome::kDegraded) {
      EXPECT_LT(r.steps_done, r.steps_target);
      ++degraded;
    } else {
      ++complete;
    }
  }
  EXPECT_EQ(complete + degraded, kRequests);
  // The burst outruns the worker, so at least one later batch saw a deep
  // queue and shed steps.
  const auto stats = server.stats();
  EXPECT_GT(stats.governor_sheds, 0u);
  EXPECT_GT(stats.degraded, 0u);
  EXPECT_EQ(stats.degraded, static_cast<uint64_t>(degraded));
  // A shed result is degraded, not an internal error.
  EXPECT_EQ(server.slo_window(10).errors, stats.internal_errors);
}

// Quality-tier requests are never governed: same burst, kQuality tier, all
// results complete at the full step count.
TEST_F(ServeAnytimeTest, QualityTierIsNeverGoverned) {
  constexpr int kRequests = 4;
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.queue_capacity = kRequests;
  cfg.governor_depth_per_step = 1;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  std::vector<std::future<Result>> futs;
  for (int i = 0; i < kRequests; ++i) {
    ReconstructRequest req;
    req.jfif = bitstream(0);
    futs.push_back(session.submit_future(req));  // default kQuality
  }
  for (auto& f : futs) {
    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::kComplete);
    EXPECT_EQ(r.steps_done, r.steps_target);
  }
  EXPECT_EQ(server.stats().governor_sheds, 0u);
}

}  // namespace
}  // namespace dcdiff::serve

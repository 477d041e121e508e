// Tests for the batched receiver serving engine (src/serve) and the
// cross-request microbatching path behind it (DCDiffModel::reconstruct_batch).
//
// The batching contract is the load-bearing property: serving N requests
// fused into one batch must produce exactly the pixels of N independent
// reconstruct() calls. The server tests then cover the operational
// envelope — concurrent sessions, backpressure, deadlines (degraded
// service), shutdown, and malformed input — with a tiny model so the whole
// file runs in seconds on one core.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "jpeg/codec.h"

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
  cfg.ae_tag = "test_serve_ae";
  cfg.tag = "test_serve";
  return cfg;
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ =
        std::filesystem::temp_directory_path() / "dcdiff_serve_test_cache";
    std::filesystem::create_directories(cache_dir_);
    setenv("DCDIFF_CACHE_DIR", cache_dir_.c_str(), 1);
    // Pooled: trained (or cache-loaded) once for the whole suite.
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

  static ReconstructRequest request(std::vector<uint8_t> bytes,
                                    int deadline_ms = 0) {
    ReconstructRequest req;
    req.jfif = std::move(bytes);
    req.deadline_ms = deadline_ms;
    return req;
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

  static std::filesystem::path cache_dir_;
  static std::shared_ptr<const core::DCDiffModel> model_;
};

std::filesystem::path ServeTest::cache_dir_;
std::shared_ptr<const core::DCDiffModel> ServeTest::model_;

// ---- Batched-vs-single equivalence (the core contract) ----

TEST_F(ServeTest, BatchedMatchesSingleAtSeveralBatchSizes) {
  for (const int n : {1, 2, 5}) {
    std::vector<jpeg::CoeffImage> coeffs;
    for (int i = 0; i < n; ++i) {
      coeffs.push_back(jpeg::decode_jfif(bitstream(i)));
    }
    const std::vector<Image> batched = model_->reconstruct_batch(coeffs);
    ASSERT_EQ(batched.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const Image single = model_->reconstruct(coeffs[static_cast<size_t>(i)]);
      EXPECT_EQ(max_abs_diff(single, batched[static_cast<size_t>(i)]), 0.0)
          << "batch size " << n << ", image " << i;
    }
  }
}

TEST_F(ServeTest, BatchedHonoursReconstructOptions) {
  core::ReconstructOptions opts;
  opts.ensemble = 1;
  opts.ddim_steps = 2;
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  const std::vector<Image> batched =
      model_->reconstruct_batch({coeffs, coeffs}, opts);
  const Image single = model_->reconstruct(coeffs, opts);
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(max_abs_diff(single, batched[0]), 0.0);
  EXPECT_EQ(max_abs_diff(single, batched[1]), 0.0);
}

// ---- Server behaviour ----

TEST_F(ServeTest, ServedResultMatchesDirectReconstruct) {
  ServerConfig cfg;
  cfg.max_batch = 4;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  const auto bytes = bitstream(0);
  Result r = session.reconstruct(request(bytes));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::kComplete);
  EXPECT_EQ(r.steps_done, r.steps_target);
  EXPECT_GT(r.e2e_seconds, 0);
  const Image direct = core::receiver_reconstruct(bytes, *model_);
  EXPECT_EQ(max_abs_diff(direct, r.image), 0.0);
  EXPECT_EQ(session.submitted(), 1u);
}

TEST_F(ServeTest, ConcurrentSessionsAllComplete) {
  constexpr int kClients = 3;
  constexpr int kPerClient = 4;
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = kClients * kPerClient;
  ReceiverServer server(cfg, model_);

  std::vector<std::vector<uint8_t>> streams;
  for (int i = 0; i < kPerClient; ++i) streams.push_back(bitstream(i));

  std::vector<Image> reference;
  for (const auto& bytes : streams) {
    reference.push_back(core::receiver_reconstruct(bytes, *model_));
  }

  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session session = server.open_session();
      std::vector<std::future<Result>> futs;
      for (const auto& bytes : streams) {
        futs.push_back(session.submit_future(request(bytes)));
      }
      for (size_t i = 0; i < futs.size(); ++i) {
        Result r = futs[i].get();
        if (r.outcome != Outcome::kComplete ||
            max_abs_diff(reference[i], r.image) != 0.0) {
          ++failures[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<size_t>(c)], 0) << "client " << c;
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_GE(stats.batches, 1u);
}

// Each session counts its own submits, accepted and rejected alike, and a
// copy of a session shares its count. 200 sessions, opened and used from 4
// client threads: session i submits i malformed bitstreams, then one valid
// request through a copy of its handle.
TEST_F(ServeTest, EachSessionCountsItsOwnSubmits) {
  constexpr int kSessions = 200;
  constexpr int kClients = 4;
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = kSessions;
  cfg.recon.ddim_steps = 1;
  cfg.recon.ensemble = 1;
  ReceiverServer server(cfg, model_);
  const std::vector<uint8_t> valid = bitstream(0);

  struct Opened {
    Session session;
    uint64_t submits;
    std::future<Result> served;
  };
  std::vector<std::vector<Opened>> opened(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = c; i < kSessions; i += kClients) {
        Session session = server.open_session();
        for (int k = 0; k < i; ++k) {
          (void)session.submit(request({0xDE, 0xAD, 0xBE, 0xEF}));
        }
        Session copy = session;
        std::future<Result> served = copy.submit_future(request(valid));
        opened[static_cast<size_t>(c)].push_back(
            {session, static_cast<uint64_t>(i) + 1, std::move(served)});
      }
    });
  }
  for (auto& t : clients) t.join();

  uint64_t malformed = 0;
  for (std::vector<Opened>& client : opened) {
    for (Opened& o : client) {
      EXPECT_EQ(o.session.submitted(), o.submits) << "session "
                                                  << o.session.id();
      EXPECT_EQ(o.served.get().outcome, Outcome::kComplete);
      malformed += o.submits - 1;
    }
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(stats.rejected_decode, malformed);
}

TEST_F(ServeTest, QueueFullSubmitsAreRejected) {
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;
  cfg.queue_capacity = 2;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  // Each reconstruction takes milliseconds; ten instant submits cannot all
  // fit through a 2-deep queue drained one at a time.
  constexpr int kSubmits = 10;
  const auto bytes = bitstream(0);
  std::vector<std::future<Result>> futs;
  for (int i = 0; i < kSubmits; ++i) {
    futs.push_back(session.submit_future(request(bytes)));
  }

  int ok = 0, rejected = 0;
  for (auto& f : futs) {
    Result r = f.get();
    if (r.status.is_ok()) {
      EXPECT_EQ(r.outcome, Outcome::kComplete);
      ++ok;
    } else {
      EXPECT_EQ(r.outcome, Outcome::kRejected);
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
          << r.status.to_string();
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ok, 0);  // accepted requests still complete
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected_queue_full, static_cast<uint64_t>(rejected));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(ok));
}

// A queued-past-deadline request is answered from the degrade path: a valid
// (coarser) image with Outcome::kDegraded, counted under serve.degraded —
// never kDeadlineExceeded.
TEST_F(ServeTest, ExpiredDeadlineDegradesInsteadOfFailing) {
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_timeout_ms = 0;  // min_steps defaults to 1: degraded service on
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  const auto bytes = bitstream(0);
  // First request occupies the single worker for several milliseconds; the
  // second's 1 ms deadline expires while it waits in the queue.
  auto busy = session.submit_future(request(bytes));
  auto doomed = session.submit_future(request(bytes, /*deadline_ms=*/1));

  EXPECT_EQ(busy.get().outcome, Outcome::kComplete);
  const Result late = doomed.get();
  ASSERT_TRUE(late.status.is_ok()) << late.status.to_string();
  EXPECT_EQ(late.outcome, Outcome::kDegraded);
  EXPECT_GE(late.steps_done, 1);
  EXPECT_LT(late.steps_done, late.steps_target);
  EXPECT_FALSE(late.image.empty());  // decodable, just coarser
  const auto stats = server.stats();
  EXPECT_EQ(stats.degraded, 1u);
}

TEST_F(ServeTest, MalformedBitstreamRejectedAtSubmit) {
  ReceiverServer server(ServerConfig{}, model_);
  Session session = server.open_session();
  auto fut = session.submit_future(request({0xDE, 0xAD, 0xBE, 0xEF}));
  // Rejection is synchronous: the future is ready without any model work.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Result r = fut.get();
  EXPECT_EQ(r.outcome, Outcome::kRejected);
  EXPECT_FALSE(r.status.is_ok());
  EXPECT_EQ(r.status.code(), StatusCode::kDataLoss) << r.status.to_string();
  EXPECT_EQ(server.stats().rejected_decode, 1u);
}

TEST_F(ServeTest, SubmitAfterShutdownIsUnavailable) {
  ReceiverServer server(ServerConfig{}, model_);
  Session session = server.open_session();
  server.shutdown();
  const Result r = session.reconstruct(request(bitstream(0)));
  EXPECT_EQ(r.outcome, Outcome::kRejected);
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable) << r.status.to_string();
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);
}

TEST_F(ServeTest, ShutdownDrainsQueuedRequests) {
  ServerConfig cfg;
  cfg.max_batch = 2;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  std::vector<std::future<Result>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(session.submit_future(request(bitstream(i))));
  }
  server.shutdown();  // must complete everything already accepted
  for (auto& f : futs) {
    EXPECT_TRUE(f.get().status.is_ok());
  }
  EXPECT_EQ(server.stats().completed, 4u);
}

TEST_F(ServeTest, LatencyPresetHalvesStepsKeepsFmpp) {
  const core::ReconstructOptions o =
      ServerConfig::latency_recon(model_->config());
  EXPECT_EQ(o.ensemble, 1);
  EXPECT_EQ(o.ddim_steps, model_->config().ddim_steps / 2);
  EXPECT_TRUE(o.use_fmpp);
}

}  // namespace
}  // namespace dcdiff::serve

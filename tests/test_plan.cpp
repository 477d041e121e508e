// Tests for the compiled inference-plan subsystem (nn/plan/ +
// core/recon_plan.h) and its wiring into DCDiffModel::reconstruct*.
//
// The load-bearing properties:
//   * Planned execution is bit-identical to the eager tape path for
//     reconstruct(), reconstruct_batch() and a hook-free
//     reconstruct_batch_anytime() (the plan's kernels clone the eager loop
//     bodies, group-norm reductions included).
//   * An image's pixels do not depend on its batch-mates: reconstruct(x)
//     equals row 0 of reconstruct_batch({x, ...}) byte for byte at the
//     paper's UNet widths, planned and eager.
//   * Plans compile once per shape signature and are reused (cache hits, no
//     rebuilds).
//   * set_plan_enabled(false) selects the eager reference: the plan layer is
//     never consulted.
//   * Steady state allocates nothing: after warmup, repeated planned
//     forwards grow neither the plan arena pool nor the thread workspace.
//   * Plan build failures surface as a typed Status, never an exception.
//   * Replica-sharded serving works with per-replica plans (this suite runs
//     under the `concurrency` CTest label; a TSan build exercises it).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "jpeg/codec.h"
#include "nn/plan/builder.h"
#include "nn/plan/cache.h"
#include "nn/workspace.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace dcdiff {
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
  cfg.ae_tag = "test_plan_ae";
  cfg.tag = "test_plan";
  return cfg;
}

// Byte-for-byte image equality (memcmp of every plane).
bool same_bytes(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.channels() != b.channels()) {
    return false;
  }
  for (int c = 0; c < a.channels(); ++c) {
    const auto& pa = a.plane(c);
    const auto& pb = b.plane(c);
    if (pa.size() != pb.size() ||
        std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(pa[0])) != 0) {
      return false;
    }
  }
  return true;
}

class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ =
        std::filesystem::temp_directory_path() / "dcdiff_plan_test_cache";
    std::filesystem::create_directories(cache_dir_);
    setenv("DCDIFF_CACHE_DIR", cache_dir_.c_str(), 1);
    model_ = core::ModelPool::instance().get(tiny_config());
  }
  static void TearDownTestSuite() {
    model_.reset();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }
  void TearDown() override { core::set_plan_enabled(true); }

  static std::vector<uint8_t> bitstream(int idx, int size = 64) {
    const Image img = data::dataset_image(data::DatasetId::kKodak, idx, size);
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

  static std::filesystem::path cache_dir_;
  static std::shared_ptr<const core::DCDiffModel> model_;
};

std::filesystem::path PlanTest::cache_dir_;
std::shared_ptr<const core::DCDiffModel> PlanTest::model_;

// ---- numerical equivalence ----

TEST_F(PlanTest, PlannedReconstructMatchesEager) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));

  core::set_plan_enabled(false);
  const Image eager = model_->reconstruct(coeffs);

  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  core::set_plan_enabled(true);
  const Image planned = model_->reconstruct(coeffs);
  // The planned path must actually have served this (no silent fallback).
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);

  EXPECT_EQ(max_abs_diff(eager, planned), 0.0);

  // A second planned call reuses the compiled plan and stays identical.
  const Image planned2 = model_->reconstruct(coeffs);
  EXPECT_EQ(max_abs_diff(planned, planned2), 0.0);
}

TEST_F(PlanTest, PlannedBatchMatchesEagerAcrossMixedSizes) {
  // Two padded sizes -> two plan signatures inside one batch call.
  std::vector<jpeg::CoeffImage> coeffs;
  coeffs.push_back(jpeg::decode_jfif(bitstream(0, 64)));
  coeffs.push_back(jpeg::decode_jfif(bitstream(1, 48)));
  coeffs.push_back(jpeg::decode_jfif(bitstream(2, 64)));

  core::set_plan_enabled(false);
  const std::vector<Image> eager = model_->reconstruct_batch(coeffs);

  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  core::set_plan_enabled(true);
  const std::vector<Image> planned = model_->reconstruct_batch(coeffs);
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);

  ASSERT_EQ(planned.size(), eager.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    EXPECT_EQ(max_abs_diff(eager[i], planned[i]), 0.0) << "image " << i;
  }
}

// A hook-free anytime call is reconstruct_batch: it compiles and runs a
// plan (no eager fallback) and returns the same bytes.
TEST_F(PlanTest, HookFreeAnytimeRunsPlannedAndEqualsBatch) {
  std::vector<jpeg::CoeffImage> coeffs;
  for (int i = 0; i < 3; ++i) coeffs.push_back(jpeg::decode_jfif(bitstream(i)));
  core::ReconstructOptions opts;
  opts.ddim_steps = 3;  // a signature no other test compiles
  core::set_plan_enabled(true);
  const std::vector<Image> batch = model_->reconstruct_batch(coeffs, opts);

  std::vector<core::AnytimeItem> items;
  for (const auto& c : coeffs) items.push_back({&c, 0, 0});
  const uint64_t builds_before = obs::counter("plan.builds").value();
  const uint64_t hits_before = obs::counter("plan.cache_hits").value();
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  const core::AnytimeResult res =
      model_->reconstruct_batch_anytime(items, opts, core::AnytimeControl{});
  EXPECT_EQ(obs::counter("plan.builds").value(), builds_before);
  EXPECT_GT(obs::counter("plan.cache_hits").value(), hits_before);
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
  ASSERT_EQ(res.images.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(same_bytes(res.images[i], batch[i])) << "image " << i;
    EXPECT_EQ(res.steps_done[i], 3);
  }
}

// Coordinate-seeded noise is plan input 1 like the sequential stream, so
// tiles run planned: a hook-free call with per-item origins compiles a plan
// and matches the eager reference byte for byte.
TEST_F(PlanTest, CoordinateNoiseRunsPlannedAndMatchesEager) {
  std::vector<jpeg::CoeffImage> coeffs;
  for (int i = 0; i < 2; ++i) coeffs.push_back(jpeg::decode_jfif(bitstream(i)));
  std::vector<core::AnytimeItem> items = {{&coeffs[0], 4, 0},
                                          {&coeffs[1], 0, 8}};
  core::ReconstructOptions opts;
  opts.ddim_steps = 3;
  opts.coord_noise = true;
  opts.postprocess = false;
  opts.use_fmpp = false;

  core::set_plan_enabled(false);
  const core::AnytimeResult eager =
      model_->reconstruct_batch_anytime(items, opts, core::AnytimeControl{});

  core::set_plan_enabled(true);
  const uint64_t builds_before = obs::counter("plan.builds").value();
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  const core::AnytimeResult planned =
      model_->reconstruct_batch_anytime(items, opts, core::AnytimeControl{});
  EXPECT_GT(obs::counter("plan.builds").value(), builds_before);
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
  ASSERT_EQ(planned.images.size(), eager.images.size());
  for (size_t i = 0; i < eager.images.size(); ++i) {
    EXPECT_TRUE(same_bytes(eager.images[i], planned.images[i]))
        << "image " << i;
  }
}

// Batch-mates never change an image's pixels. At the paper's UNet widths
// (base 32, temb 64) the timestep-embedding linears have 2 rows for one
// image and 8 for four (ensemble 2), which straddles the GEMM's small
// problem threshold if it is judged per call instead of per row. The
// postprocess re-quantizes every DC, which hides most such drift (and
// turns the rest into whole quantizer steps), so the raw estimate is
// checked too. Random init: bits, like cost, do not depend on training.
TEST(PlanRowInvariance, SingleImageEqualsItsBatchRowAtPaperWidths) {
  core::DCDiffConfig cfg;  // paper widths
  cfg.ddim_steps = 2;
  ASSERT_EQ(cfg.unet.base, 32);
  ASSERT_EQ(cfg.unet.temb_dim, 64);
  const core::DCDiffModel model(cfg);
  std::vector<jpeg::CoeffImage> coeffs;
  for (int i = 0; i < 4; ++i) {
    const Image img = data::dataset_image(data::DatasetId::kKodak, i, 32);
    coeffs.push_back(jpeg::decode_jfif(core::sender_encode(img).bytes));
  }
  for (const int planned : {1, 0}) {
    core::set_plan_enabled(planned);
    for (const bool postprocess : {true, false}) {
      core::ReconstructOptions opts;
      opts.postprocess = postprocess;
      const Image single = model.reconstruct(coeffs[0], opts);
      const std::vector<Image> batch = model.reconstruct_batch(coeffs, opts);
      EXPECT_TRUE(same_bytes(single, batch[0]))
          << "planned=" << planned << " postprocess=" << postprocess;
    }
  }
  core::set_plan_enabled(true);
}

// ---- compile-once semantics ----

TEST_F(PlanTest, PlanCompiledOncePerSignature) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  core::set_plan_enabled(true);
  (void)model_->reconstruct(coeffs);  // compiles on first use (or earlier)

  const uint64_t builds_before = obs::counter("plan.builds").value();
  const uint64_t hits_before = obs::counter("plan.cache_hits").value();
  (void)model_->reconstruct(coeffs);
  (void)model_->reconstruct(coeffs);
  EXPECT_EQ(obs::counter("plan.builds").value(), builds_before);
  EXPECT_GE(obs::counter("plan.cache_hits").value(), hits_before + 2);
}

TEST_F(PlanTest, DisabledPlanPathIsNeverConsulted) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  core::set_plan_enabled(false);
  EXPECT_FALSE(core::plan_enabled());
  const uint64_t builds_before = obs::counter("plan.builds").value();
  const uint64_t hits_before = obs::counter("plan.cache_hits").value();
  const Image img = model_->reconstruct(coeffs);
  EXPECT_GT(img.width(), 0);
  EXPECT_EQ(obs::counter("plan.builds").value(), builds_before);
  EXPECT_EQ(obs::counter("plan.cache_hits").value(), hits_before);
  core::set_plan_enabled(true);
  EXPECT_TRUE(core::plan_enabled());
}

// ---- steady-state allocation behaviour ----

TEST_F(PlanTest, SteadyStatePlannedForwardAllocatesNothing) {
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  core::set_plan_enabled(true);
  // Warm up: plan compile, arena-pool seeding, workspace growth.
  (void)model_->reconstruct(coeffs);
  (void)model_->reconstruct(coeffs);

  const uint64_t arena_allocs_before =
      obs::counter("plan.arena_allocs").value();
  const size_t ws_blocks_before = nn::Workspace::total_blocks_allocated();
  for (int i = 0; i < 3; ++i) {
    (void)model_->reconstruct(coeffs);
    EXPECT_EQ(obs::gauge("plan.allocs_per_forward").value(), 0.0);
  }
  EXPECT_EQ(obs::counter("plan.arena_allocs").value(), arena_allocs_before);
  EXPECT_EQ(nn::Workspace::total_blocks_allocated(), ws_blocks_before);
  EXPECT_GT(obs::gauge("plan.arena_bytes").value(), 0.0);
}

// ---- typed build failures ----

TEST(PlanCacheTest, BuildFailureSurfacesAsStatus) {
  nn::plan::PlanCache cache;
  std::shared_ptr<const nn::plan::Plan> plan;

  // A capture that throws (unsupported op) becomes invalid_argument.
  const Status bad = cache.get_or_build(
      "bad",
      [](nn::plan::GraphBuilder&) {
        throw std::invalid_argument("unsupported op");
      },
      nullptr, &plan);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 0u);

  // A capture that marks no output is a malformed graph, same code.
  const Status empty = cache.get_or_build(
      "empty", [](nn::plan::GraphBuilder& g) { (void)g.input({1, 4}); },
      nullptr, &plan);
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);

  // A well-formed graph compiles and runs the same math as eager.
  const Status ok = cache.get_or_build(
      "ok",
      [](nn::plan::GraphBuilder& g) { g.mark_output(g.silu(g.input({1, 4}))); },
      nullptr, &plan);
  ASSERT_TRUE(ok.is_ok()) << ok.to_string();
  EXPECT_EQ(cache.size(), 1u);
  auto lease = cache.arena_for(*plan);
  const float in[4] = {-1.0f, 0.0f, 0.5f, 2.0f};
  std::vector<const float*> outs;
  plan->run(lease.arena(), {in}, &outs);
  ASSERT_EQ(outs.size(), 1u);
  for (int i = 0; i < 4; ++i) {
    const float want = in[i] / (1.0f + std::exp(-in[i]));
    EXPECT_EQ(outs[0][i], want) << "lane " << i;
  }
}

// ---- replica-sharded serving through per-replica plans ----

TEST_F(PlanTest, ShardedServerMatchesSingleWorkerWithPlans) {
  core::set_plan_enabled(true);
  constexpr int kImages = 4;
  std::vector<std::vector<uint8_t>> streams;
  for (int i = 0; i < kImages; ++i) streams.push_back(bitstream(i));

  serve::ServerConfig scfg;
  scfg.max_batch = 2;
  scfg.queue_capacity = 64;

  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();

  std::vector<Image> reference(kImages);
  {
    scfg.workers = 1;
    serve::ReceiverServer server(scfg, model_);
    serve::Session session = server.open_session();
    for (int i = 0; i < kImages; ++i) {
      serve::ReconstructRequest req;
      req.jfif = streams[static_cast<size_t>(i)];
      serve::Result r = session.reconstruct(req);
      ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
      reference[static_cast<size_t>(i)] = std::move(r.image);
    }
  }
  {
    scfg.workers = 3;
    serve::ReceiverServer server(scfg, model_);
    serve::Session session = server.open_session();
    std::vector<std::future<serve::Result>> futs;
    for (const auto& bytes : streams) {
      serve::ReconstructRequest req;
      req.jfif = bytes;
      futs.push_back(session.submit_future(req));
    }
    for (int i = 0; i < kImages; ++i) {
      serve::Result r = futs[static_cast<size_t>(i)].get();
      ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
      // Worker batching may group requests differently than the reference
      // pass; an image's pixels do not depend on its batch-mates.
      EXPECT_EQ(max_abs_diff(reference[static_cast<size_t>(i)], r.image), 0.0)
          << "image " << i;
    }
  }
  // Every request on both servers went through the planned path.
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
}

}  // namespace
}  // namespace dcdiff

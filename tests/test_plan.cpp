// Tests for the compiled inference-plan subsystem (nn/plan/), the UNet-step
// and decoder plans core::RunningBatch opens, and their wiring into
// DCDiffModel::reconstruct*.
//
// The load-bearing properties:
//   * Planned execution (the UNet-step and decoder plans driven by the one
//     DDIM loop) is bit-identical to the eager modules for reconstruct(),
//     reconstruct_batch() and reconstruct_batch_anytime(), hooked or not,
//     for x0- and eps-predicting models (both executors call the
//     nn/kernels.h kernels and the same PackCache panels).
//   * Hooked traffic (partials, early stops) runs planned.
//   * An image's pixels do not depend on its batch-mates: reconstruct(x)
//     equals row 0 of reconstruct_batch({x, ...}) byte for byte at the
//     paper's UNet widths, planned and eager.
//   * Plans compile once per shape and are reused (cache hits, no
//     rebuilds), whatever the step count.
//   * set_plan_enabled(false) selects the eager reference: the plan layer is
//     never consulted.
//   * Steady state allocates nothing: after warmup, repeated planned
//     forwards, of two sizes and with partials, grow neither the thread's
//     plan arena nor its workspace.
//   * Plan build failures surface as a typed Status, never an exception; a
//     conv weight that still requires grad is such a failure.
//   * Each of the 10 op kinds and each fused form runs the eager op's
//     kernel: a one-op plan equals the eager op chain byte for byte, also
//     when the kernel splits its work (the fused activation included) over
//     the ranges of a 2-thread pool, and each activation kernel equals a
//     serial loop of its expression.
//   * The decoder plan holds one image and runs once per image: a size's
//     first single-image call builds it, and a later 3-image call of that
//     size reuses it and equals the eager batched decode byte for byte.
//   * The UNet-step plan takes what UNet::forward takes: rows at different
//     timesteps in one run, with or without FreeU modulation, equal the
//     eager forward byte for byte; so does a running batch whose requests
//     join at different steps, one with FMPP and one without.
//   * A plan refused at build time (a conv weight that still trains) leaves
//     that request count eager, with the eager bytes, and the next call
//     after the weight is frozen builds and runs both plans.
//   * Plans borrow the model's PackCache panels (one per conv weight).
//   * Each thread runs plans in its own arena: two threads sharing one
//     model's plans, and a 3-worker server on one model, give the serial
//     bytes
//     (this suite runs under the `concurrency` CTest label; a TSan build
//     exercises it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/running_batch.h"
#include "core/tensor_image.h"
#include "data/datasets.h"
#include "jpeg/codec.h"
#include "nn/kernels.h"
#include "nn/modules.h"
#include "nn/packcache.h"
#include "nn/plan/builder.h"
#include "nn/plan/cache.h"
#include "nn/threadpool.h"
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

// Coordinate-seeded noise is plan input 0 like the sequential stream, so
// tiles run planned: a hook-free call with per-item origins runs the plans
// (FMPP off is s = b = 1, so it shares them with FMPP-on calls of its size)
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
  const auto lookups = [] {
    return obs::counter("plan.builds").value() +
           obs::counter("plan.cache_hits").value();
  };
  const uint64_t lookups_before = lookups();
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  const core::AnytimeResult planned =
      model_->reconstruct_batch_anytime(items, opts, core::AnytimeControl{});
  EXPECT_GT(lookups(), lookups_before);
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
  ASSERT_EQ(planned.images.size(), eager.images.size());
  for (size_t i = 0; i < eager.images.size(); ++i) {
    EXPECT_TRUE(same_bytes(eager.images[i], planned.images[i]))
        << "image " << i;
  }
}

// ---- hooked traffic runs planned ----

// The per-step hook runs between the steps of the one DDIM loop, so a
// progressive run and a run stopped early use the warm UNet-step and
// decoder plans (cache hits, no build, no fallback) and equal the same call
// on the eager modules byte for byte: every partial, its psnr proxy, and
// the final images.
TEST_F(PlanTest, HookedRunsArePlannedAndMatchEager) {
  using Action = core::AnytimeControl::Action;
  const jpeg::CoeffImage c0 = jpeg::decode_jfif(bitstream(0));
  const jpeg::CoeffImage c1 = jpeg::decode_jfif(bitstream(1));
  const std::vector<core::AnytimeItem> items = {{&c0, 0, 0}, {&c1, 0, 0}};
  core::set_plan_enabled(true);
  (void)model_->reconstruct_batch_anytime(items, {}, {});  // warm this size

  struct Partial {
    int item, steps_done;
    double proxy;
    Image image;
  };
  struct Run {
    core::AnytimeResult result;
    std::vector<Partial> partials;
  };
  const auto run = [&](const std::function<Action(int, int)>& on_step) {
    Run r;
    core::AnytimeControl ctrl;
    ctrl.on_step = on_step;
    ctrl.on_partial = [&](int item, Image image, int done, double proxy) {
      r.partials.push_back({item, done, proxy, std::move(image)});
    };
    r.result = model_->reconstruct_batch_anytime(items, {}, ctrl);
    return r;
  };
  const std::function<Action(int, int)> every_step = [](int done, int total) {
    return done < total ? Action::kEmitPartial : Action::kContinue;
  };
  const std::function<Action(int, int)> stop_at_2 = [](int done, int) {
    return done >= 2 ? Action::kStop : Action::kEmitPartial;
  };
  for (const auto& on_step : {every_step, stop_at_2}) {
    core::set_plan_enabled(true);
    const uint64_t builds_before = obs::counter("plan.builds").value();
    const uint64_t hits_before = obs::counter("plan.cache_hits").value();
    const uint64_t fallbacks_before =
        obs::counter("plan.eager_fallbacks").value();
    const Run planned = run(on_step);
    EXPECT_GT(obs::counter("plan.cache_hits").value(), hits_before);
    EXPECT_EQ(obs::counter("plan.builds").value(), builds_before);
    EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);

    core::set_plan_enabled(false);
    const Run eager = run(on_step);
    core::set_plan_enabled(true);

    ASSERT_FALSE(eager.partials.empty());
    ASSERT_EQ(planned.partials.size(), eager.partials.size());
    for (size_t i = 0; i < eager.partials.size(); ++i) {
      const Partial& p = planned.partials[i];
      const Partial& e = eager.partials[i];
      EXPECT_EQ(p.item, e.item) << "partial " << i;
      EXPECT_EQ(p.steps_done, e.steps_done) << "partial " << i;
      EXPECT_EQ(p.proxy, e.proxy) << "partial " << i;
      EXPECT_TRUE(same_bytes(p.image, e.image)) << "partial " << i;
    }
    EXPECT_EQ(planned.result.early_exit, eager.result.early_exit);
    EXPECT_EQ(planned.result.steps_done, eager.result.steps_done);
    ASSERT_EQ(planned.result.images.size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_TRUE(same_bytes(planned.result.images[i], eager.result.images[i]))
          << "image " << i;
    }
  }
}

// No plan depends on the step count: a governor-shed or a full-length call
// of one size reuses the plans the first call compiled.
TEST_F(PlanTest, StepCountsShareOnePlan) {
  // 40 px: a size no other test of this model compiles.
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(3, 40));
  core::set_plan_enabled(true);
  for (const int steps : {2, 3, 4}) {
    core::ReconstructOptions opts;
    opts.ddim_steps = steps;
    const uint64_t builds_before = obs::counter("plan.builds").value();
    (void)model_->reconstruct(coeffs, opts);
    EXPECT_EQ(obs::counter("plan.builds").value() - builds_before,
              steps == 2 ? 2u : 0u)
        << steps << " steps";
  }
}

// The decoder plan is keyed by size alone and runs once per image: a
// single-image call builds the step plan and the decoder, a 3-image call of
// that size builds only its step plan, and its images equal the eager
// batched decode byte for byte.
TEST_F(PlanTest, DecoderPlanIsSharedAcrossImageCounts) {
  // 56 px: a size no other test of this model compiles.
  std::vector<jpeg::CoeffImage> coeffs;
  for (int i = 0; i < 3; ++i) {
    coeffs.push_back(jpeg::decode_jfif(bitstream(i, 56)));
  }
  core::set_plan_enabled(true);
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  uint64_t builds_before = obs::counter("plan.builds").value();
  (void)model_->reconstruct_batch({coeffs[0]});
  EXPECT_EQ(obs::counter("plan.builds").value() - builds_before, 2u);
  builds_before = obs::counter("plan.builds").value();
  const std::vector<Image> planned = model_->reconstruct_batch(coeffs);
  EXPECT_EQ(obs::counter("plan.builds").value() - builds_before, 1u);
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);

  core::set_plan_enabled(false);
  const std::vector<Image> eager = model_->reconstruct_batch(coeffs);
  ASSERT_EQ(planned.size(), eager.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    EXPECT_TRUE(same_bytes(planned[i], eager[i])) << "image " << i;
  }
}

// ---- paths a whole-model capture never covered ----

std::vector<jpeg::CoeffImage> two_sizes() {
  std::vector<jpeg::CoeffImage> coeffs;
  for (const int size : {32, 48}) {
    const Image img = data::dataset_image(data::DatasetId::kKodak, 0, size);
    coeffs.push_back(jpeg::decode_jfif(core::sender_encode(img).bytes));
  }
  return coeffs;
}

core::DCDiffConfig random_init_config() {
  core::DCDiffConfig cfg = tiny_config();
  cfg.tag = "test_plan_random_init";  // never trained or cached
  return cfg;
}

// An eps-predicting model runs the same plans (the prediction kind is DDIM
// arithmetic outside them) and equals eager byte for byte.
TEST(PlanPaths, EpsPredictionPlannedMatchesEager) {
  core::DCDiffConfig cfg = random_init_config();
  cfg.prediction = core::Prediction::kEps;
  const core::DCDiffModel model(cfg);
  const std::vector<jpeg::CoeffImage> coeffs = two_sizes();
  core::set_plan_enabled(false);
  const std::vector<Image> eager = model.reconstruct_batch(coeffs);
  core::set_plan_enabled(true);
  const uint64_t builds_before = obs::counter("plan.builds").value();
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  const std::vector<Image> planned = model.reconstruct_batch(coeffs);
  EXPECT_EQ(obs::counter("plan.builds").value(), builds_before + 4);
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
  ASSERT_EQ(planned.size(), eager.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    EXPECT_TRUE(same_bytes(planned[i], eager[i])) << "image " << i;
  }
}

// Captures the UNet-step plan for `rows` latent rows of h x w into `cache`,
// on the graph inputs core::RunningBatch runs it with: z, the rows'
// timestep embedding, the control features c1/c2 and the FreeU factors s/b.
Status build_step_plan(const core::UNet& unet, int rows, int h, int w,
                       nn::plan::PlanCache& cache, nn::PackCache& packs,
                       std::shared_ptr<const nn::plan::Plan>* out) {
  const core::UNetConfig& uc = unet.config();
  return cache.get_or_build(
      "unet_r" + std::to_string(rows),
      [&](nn::plan::GraphBuilder& g) {
        const nn::plan::TensorId z = g.input({rows, uc.z_channels, h, w});
        const nn::plan::TensorId temb = g.input({rows, uc.temb_dim});
        const nn::plan::TensorId c1 = g.input({rows, uc.base, h, w});
        const nn::plan::TensorId c2 =
            g.input({rows, 2 * uc.base, h / 2, w / 2});
        const nn::plan::TensorId s = g.input({rows});
        const nn::plan::TensorId b = g.input({rows});
        g.mark_output(unet.capture(g, z, temb, c1, c2, s, b));
      },
      packs, out);
}

// The UNet-step plan takes what UNet::forward takes: one timestep and one
// pair of FreeU factors per row. Rows at four different timesteps in one
// run equal the eager forward byte for byte, modulated and with unit
// factors, which equal the unmodulated forward (FMPP off). Paper widths,
// random init.
TEST(PlanPaths, StepPlanRowsAtDifferentTimestepsMatchEager) {
  const core::DCDiffConfig cfg;
  const core::DCDiffModel model(cfg);
  const core::UNetConfig& uc = cfg.unet;
  constexpr int kRows = 4;
  constexpr int h = 8, w = 8;
  nn::plan::PlanCache cache;
  nn::PackCache packs;
  std::shared_ptr<const nn::plan::Plan> plan;
  const Status st = build_step_plan(model.unet(), kRows, h, w, cache, packs,
                                    &plan);
  ASSERT_TRUE(st.is_ok()) << st.to_string();

  Rng rng(23);
  const auto random = [&](std::vector<int> shape) {
    std::vector<float> v(nn::shape_numel(shape));
    for (float& x : v) x = rng.normal();
    return nn::Tensor::from_data(std::move(shape), std::move(v));
  };
  const nn::Tensor z = random({kRows, uc.z_channels, h, w});
  core::ControlModule::Features ctrl;
  ctrl.c1 = random({kRows, uc.base, h, w});
  ctrl.c2 = random({kRows, 2 * uc.base, h / 2, w / 2});
  const std::vector<int> t = {0, 37, 61, cfg.diffusion_T - 1};
  const nn::Tensor s = nn::Tensor::from_data({kRows}, {1.2f, 0.9f, 1.1f, 1.0f});
  const nn::Tensor b = nn::Tensor::from_data({kRows}, {0.8f, 1.0f, 0.7f, 1.3f});
  const nn::Tensor ones = nn::Tensor::from_data({kRows}, {1, 1, 1, 1});
  const nn::Tensor temb = nn::timestep_embedding(t, uc.temb_dim);
  const auto planned = [&](const nn::Tensor& s_in, const nn::Tensor& b_in) {
    std::vector<const float*> outs;
    plan->run({z.value().data(), temb.value().data(), ctrl.c1.value().data(),
               ctrl.c2.value().data(), s_in.value().data(),
               b_in.value().data()},
              &outs);
    return nn::Tensor::from_data(
        plan->output_shape(0),
        std::vector<float>(outs[0], outs[0] + plan->output_numel(0)));
  };
  const auto same = [](const nn::Tensor& x, const nn::Tensor& y) {
    return x.shape() == y.shape() &&
           std::memcmp(x.value().data(), y.value().data(),
                       x.numel() * sizeof(float)) == 0;
  };
  EXPECT_TRUE(same(planned(s, b), model.unet().forward(z, t, ctrl, s, b)));
  EXPECT_TRUE(same(planned(ones, ones), model.unet().forward(z, t, ctrl)));
}

// The running batch at paper widths: request A (FMPP on) runs 3 steps
// alone, then B (FMPP off) joins, so every shared step runs rows at two
// timesteps and with two kinds of FreeU factors, and A leaves 3 steps
// before B. Each leaves at its own 12th step, postprocess off so the raw
// estimate is compared. The planned images equal the eager ones byte for
// byte, with no fallback, and A's equals reconstruct() of A alone.
TEST(PlanRunningBatch, RequestsJoiningMidChainMatchEager) {
  const core::DCDiffConfig cfg;  // paper widths, random init
  ASSERT_EQ(cfg.ddim_steps, 12);
  const core::DCDiffModel model(cfg);
  std::vector<jpeg::CoeffImage> coeffs;
  for (int i = 0; i < 2; ++i) {
    const Image img = data::dataset_image(data::DatasetId::kKodak, i, 32);
    coeffs.push_back(jpeg::decode_jfif(core::sender_encode(img).bytes));
  }
  core::ReconstructOptions a_opts;
  a_opts.postprocess = false;
  core::ReconstructOptions b_opts = a_opts;
  b_opts.use_fmpp = false;
  const auto run = [&] {
    core::RunningBatch batch(model, 2, cfg.sample_ensemble, 32, 32);
    const int a = batch.admit({&coeffs[0], 0, 0}, a_opts);
    for (int i = 0; i < 3; ++i) batch.step();
    const int b = batch.admit({&coeffs[1], 0, 0}, b_opts);
    std::vector<Image> out;
    for (int i = 0; i < 9; ++i) batch.step();
    EXPECT_EQ(batch.steps_done(a), 12);
    out.push_back(batch.retire(a));
    for (int i = 0; i < 3; ++i) batch.step();
    EXPECT_EQ(batch.steps_done(b), 12);
    out.push_back(batch.retire(b));
    return out;
  };
  core::set_plan_enabled(false);
  const std::vector<Image> eager = run();
  core::set_plan_enabled(true);
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  const std::vector<Image> planned = run();
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
  ASSERT_EQ(planned.size(), 2u);
  for (size_t i = 0; i < planned.size(); ++i) {
    EXPECT_TRUE(same_bytes(planned[i], eager[i])) << "request " << i;
  }
  EXPECT_TRUE(same_bytes(planned[0], model.reconstruct(coeffs[0], a_opts)));
}

// A step plan refused at build time leaves its request count eager: a
// conv weight that still trains is a kInvalidArgument build failure, and
// reconstruct_batch returns the eager bytes, counting one build failure
// and one fallback. Once the weight is frozen again the next call builds
// the step and decoder plans and runs them.
TEST(PlanPaths, RefusedStepPlanRunsEagerUntilWeightIsFrozen) {
  const core::DCDiffModel model(random_init_config());
  std::vector<jpeg::CoeffImage> coeffs;
  for (int i = 0; i < 2; ++i) {
    const Image img = data::dataset_image(data::DatasetId::kKodak, i, 32);
    coeffs.push_back(jpeg::decode_jfif(core::sender_encode(img).bytes));
  }
  core::set_plan_enabled(false);
  const std::vector<Image> eager = model.reconstruct_batch(coeffs);
  core::set_plan_enabled(true);

  nn::Tensor weight;
  for (const nn::Tensor& p : model.unet().params()) {
    if (p.ndim() == 4) {
      weight = p;
      break;
    }
  }
  ASSERT_TRUE(weight.defined());
  weight.set_requires_grad(true);
  {
    nn::plan::PlanCache cache;
    nn::PackCache packs;
    std::shared_ptr<const nn::plan::Plan> plan;
    EXPECT_EQ(
        build_step_plan(model.unet(), 4, 8, 8, cache, packs, &plan).code(),
        StatusCode::kInvalidArgument);
  }

  obs::Counter& builds = obs::counter("plan.builds");
  obs::Counter& failures = obs::counter("plan.build_failures");
  obs::Counter& fallbacks = obs::counter("plan.eager_fallbacks");
  uint64_t builds_before = builds.value();
  const uint64_t failures_before = failures.value();
  const uint64_t fallbacks_before = fallbacks.value();
  const std::vector<Image> fallback = model.reconstruct_batch(coeffs);
  EXPECT_EQ(builds.value(), builds_before);
  EXPECT_EQ(failures.value() - failures_before, 1u);
  EXPECT_EQ(fallbacks.value() - fallbacks_before, 1u);
  ASSERT_EQ(fallback.size(), eager.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    EXPECT_TRUE(same_bytes(fallback[i], eager[i])) << "image " << i;
  }

  weight.set_requires_grad(false);
  builds_before = builds.value();
  const std::vector<Image> planned = model.reconstruct_batch(coeffs);
  EXPECT_EQ(builds.value() - builds_before, 2u);
  EXPECT_EQ(failures.value() - failures_before, 1u);
  EXPECT_EQ(fallbacks.value() - fallbacks_before, 1u);
  ASSERT_EQ(planned.size(), eager.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    EXPECT_TRUE(same_bytes(planned[i], eager[i])) << "image " << i;
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

// The UNet-step and decoder plans of every size group share the calling
// thread's one arena: once it has grown to the largest plan, reconstructs
// of either size, plain or emitting a partial at every step, allocate
// neither arena nor workspace.
TEST_F(PlanTest, SteadyStatePlannedForwardAllocatesNothing) {
  using Action = core::AnytimeControl::Action;
  const std::vector<jpeg::CoeffImage> coeffs = two_sizes();
  const std::vector<core::AnytimeItem> items = {{&coeffs[0], 0, 0},
                                                {&coeffs[1], 0, 0}};
  core::AnytimeControl hooked;
  hooked.on_step = [](int done, int total) {
    return done < total ? Action::kEmitPartial : Action::kContinue;
  };
  int partials = 0;
  hooked.on_partial = [&](int, Image, int, double) { ++partials; };
  const auto forwards = [&] {
    (void)model_->reconstruct(coeffs[0]);
    (void)model_->reconstruct_batch(coeffs);
    (void)model_->reconstruct_batch_anytime(items, {}, hooked);
  };
  core::set_plan_enabled(true);
  // Warm up: plan compiles, arena and workspace growth.
  forwards();
  forwards();

  const uint64_t arena_allocs_before =
      obs::counter("plan.arena_allocs").value();
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  const size_t ws_blocks_before = nn::Workspace::total_blocks_allocated();
  partials = 0;
  for (int i = 0; i < 3; ++i) forwards();
  EXPECT_GT(partials, 0);
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
  EXPECT_EQ(obs::counter("plan.arena_allocs").value(), arena_allocs_before);
  EXPECT_EQ(nn::Workspace::total_blocks_allocated(), ws_blocks_before);
  EXPECT_GT(obs::gauge("plan.arena_bytes").value(), 0.0);
}

// ---- typed build failures ----

TEST(PlanCacheTest, BuildFailureSurfacesAsStatus) {
  nn::plan::PlanCache cache;
  nn::PackCache packs;
  std::shared_ptr<const nn::plan::Plan> plan;

  // A capture that throws (unsupported op) becomes invalid_argument.
  const Status bad = cache.get_or_build(
      "bad",
      [](nn::plan::GraphBuilder&) {
        throw std::invalid_argument("unsupported op");
      },
      packs, &plan);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 0u);

  // A capture that marks no output is a malformed graph, same code.
  const Status empty = cache.get_or_build(
      "empty", [](nn::plan::GraphBuilder& g) { (void)g.input({1, 4}); },
      packs, &plan);
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);

  // A well-formed graph compiles (its math: EveryOpMatchesEager below).
  const Status ok = cache.get_or_build(
      "ok",
      [](nn::plan::GraphBuilder& g) { g.mark_output(g.silu(g.input({1, 4}))); },
      packs, &plan);
  ASSERT_TRUE(ok.is_ok()) << ok.to_string();
  EXPECT_EQ(cache.size(), 1u);
}

// A plan bakes in the weights it was built from and borrows the shared
// panels, so a conv weight that may still train is refused at build time.
TEST(PlanCacheTest, TrainableConvWeightIsRefused) {
  nn::plan::PlanCache cache;
  nn::PackCache packs;
  Rng rng(7);
  nn::Conv2d conv(3, 4, 3, 1, 1, rng);  // a fresh layer requires grad
  ASSERT_TRUE(conv.w.requires_grad());
  const auto capture = [&](nn::plan::GraphBuilder& g) {
    g.mark_output(conv.capture(g, g.input({1, 3, 8, 8})));
  };
  std::shared_ptr<const nn::plan::Plan> plan;
  EXPECT_EQ(cache.get_or_build("conv", capture, packs, &plan).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(packs.size(), 0u);

  conv.w.set_requires_grad(false);
  EXPECT_TRUE(cache.get_or_build("conv", capture, packs, &plan).is_ok());
  EXPECT_EQ(packs.size(), 1u);
}

// ---- every op kind and fused form equals its eager op chain ----

nn::Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  std::vector<float> v(nn::shape_numel(shape));
  for (float& x : v) x = rng.uniform(-2.0f, 2.0f);
  return nn::Tensor::from_data(std::move(shape), std::move(v));
}

// Every case runs on a 2-thread pool. The "split" cases are fused
// activations at shapes where the producing kernel splits its work,
// activation included, over both threads' ranges (their outputs hold more
// than two activation grains); the other shapes never split a range.
TEST(PlanCacheTest, EveryOpMatchesEager) {
  using nn::Tensor;
  using nn::plan::GraphBuilder;
  using nn::plan::TensorId;
  using Ids = std::vector<TensorId>;
  using Ts = std::vector<Tensor>;
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  Rng rng(17);
  // Frozen parameters: conv (8,4,3,3), group norm over 8 channels in 4
  // groups, linear (6,5).
  const Tensor cw = random_tensor({8, 4, 3, 3}, rng);
  const Tensor cb = random_tensor({8}, rng);
  const Tensor gamma = random_tensor({8}, rng);
  const Tensor beta = random_tensor({8}, rng);
  const Tensor lw = random_tensor({6, 5}, rng);
  const Tensor lb = random_tensor({6}, rng);
  const std::vector<int> x4 = {2, 3, 4, 5};
  // Split shapes, their parameters drawn from their own generator. Conv
  // (8,4,3,3) on (2,4,16,16): 32 output strips on the blocked GEMM route. A
  // 1x1 conv from one channel on (2,1,16,32): 4096 MACs per image, the
  // small-problem route with its own bias pass. Group norm on (4,8,8,12): 16
  // slices of 192 floats, one range at the elementwise grain. Linear (64,16)
  // on 48 rows: 1024 MACs per row, the small-problem GEMM, so only the
  // bias + activation pass splits.
  Rng split_rng(29);
  const Tensor pw = random_tensor({8, 1, 1, 1}, split_rng);
  const Tensor lw64 = random_tensor({64, 16}, split_rng);
  const Tensor lb64 = random_tensor({64}, split_rng);
  const std::vector<int> conv_split = {2, 4, 16, 16};
  const std::vector<int> gn_split = {4, 8, 8, 12};

  struct Case {
    std::string name;
    std::vector<std::vector<int>> inputs;  // one graph input per shape
    std::function<TensorId(GraphBuilder&, const Ids&)> planned;
    std::function<Tensor(const Ts&)> eager;
    bool split = false;
  };
  std::vector<Case> cases = {
      {"conv2d", {{2, 4, 6, 6}},
       [&](GraphBuilder& g, const Ids& in) {
         return g.conv2d(in[0], cw, cb, 1, 1);
       },
       [&](const Ts& in) { return nn::conv2d(in[0], cw, cb, 1, 1); }},
      {"conv2d_stride2_nobias", {{2, 4, 7, 7}},
       [&](GraphBuilder& g, const Ids& in) {
         return g.conv2d(in[0], cw, Tensor(), 2, 0);
       },
       [&](const Ts& in) { return nn::conv2d(in[0], cw, Tensor(), 2, 0); }},
      {"linear", {{3, 5}},
       [&](GraphBuilder& g, const Ids& in) { return g.linear(in[0], lw, lb); },
       [&](const Ts& in) { return nn::linear(in[0], lw, lb); }},
      {"group_norm", {{2, 8, 5, 5}},
       [&](GraphBuilder& g, const Ids& in) {
         return g.group_norm(in[0], gamma, beta, 4);
       },
       [&](const Ts& in) { return nn::group_norm(in[0], gamma, beta, 4); }},
      {"silu", {x4},
       [](GraphBuilder& g, const Ids& in) { return g.silu(in[0]); },
       [](const Ts& in) { return nn::silu(in[0]); }},
      {"tanh", {x4},
       [](GraphBuilder& g, const Ids& in) { return g.tanh(in[0]); },
       [](const Ts& in) { return nn::tanh_op(in[0]); }},
      {"add", {x4, x4},
       [](GraphBuilder& g, const Ids& in) { return g.add(in[0], in[1]); },
       [](const Ts& in) { return nn::add(in[0], in[1]); }},
      {"add_sample_channel_bias", {x4, {2, 3}},
       [](GraphBuilder& g, const Ids& in) {
         return g.add_sample_channel_bias(in[0], in[1]);
       },
       [](const Ts& in) { return nn::add_sample_channel_bias(in[0], in[1]); }},
      {"mul_per_sample", {x4, {2}},
       [](GraphBuilder& g, const Ids& in) {
         return g.mul_per_sample(in[0], in[1]);
       },
       [](const Ts& in) { return nn::mul_per_sample(in[0], in[1]); }},
      {"concat_channels", {x4, {2, 2, 4, 5}},
       [](GraphBuilder& g, const Ids& in) {
         return g.concat_channels(in[0], in[1]);
       },
       [](const Ts& in) { return nn::concat_channels(in[0], in[1]); }},
      {"upsample2x", {x4},
       [](GraphBuilder& g, const Ids& in) { return g.upsample2x(in[0]); },
       [](const Ts& in) { return nn::upsample_nearest2x(in[0]); }},
      // Fused forms: conv + group norm [+ activation].
      {"conv2d+group_norm", {{2, 4, 6, 6}},
       [&](GraphBuilder& g, const Ids& in) {
         return g.group_norm(g.conv2d(in[0], cw, cb, 1, 1), gamma, beta, 4);
       },
       [&](const Ts& in) {
         return nn::group_norm(nn::conv2d(in[0], cw, cb, 1, 1), gamma, beta,
                               4);
       }},
      {"conv2d+group_norm+silu", {{2, 4, 6, 6}},
       [&](GraphBuilder& g, const Ids& in) {
         return g.silu(
             g.group_norm(g.conv2d(in[0], cw, cb, 1, 1), gamma, beta, 4));
       },
       [&](const Ts& in) {
         return nn::silu(nn::group_norm(nn::conv2d(in[0], cw, cb, 1, 1),
                                        gamma, beta, 4));
       }},
  };
  // Fused forms: conv / group norm / linear followed by each activation.
  struct Act {
    const char* name;
    TensorId (GraphBuilder::*planned)(TensorId);
    Tensor (*eager)(const Tensor&);
  };
  const Act acts[] = {{"silu", &GraphBuilder::silu, &nn::silu},
                      {"tanh", &GraphBuilder::tanh, &nn::tanh_op}};
  for (const Act& act : acts) {
    cases.push_back(
        {std::string("conv2d+") + act.name, {{2, 4, 6, 6}},
         [&](GraphBuilder& g, const Ids& in) {
           return (g.*act.planned)(g.conv2d(in[0], cw, cb, 1, 1));
         },
         [&](const Ts& in) {
           return act.eager(nn::conv2d(in[0], cw, cb, 1, 1));
         }});
    cases.push_back(
        {std::string("group_norm+") + act.name, {{2, 8, 5, 5}},
         [&](GraphBuilder& g, const Ids& in) {
           return (g.*act.planned)(g.group_norm(in[0], gamma, beta, 4));
         },
         [&](const Ts& in) {
           return act.eager(nn::group_norm(in[0], gamma, beta, 4));
         }});

    cases.push_back(
        {std::string("linear+") + act.name, {{3, 5}},
         [&](GraphBuilder& g, const Ids& in) {
           return (g.*act.planned)(g.linear(in[0], lw, lb));
         },
         [&](const Ts& in) { return act.eager(nn::linear(in[0], lw, lb)); }});
  }
  // The fused forms again at the split shapes.
  cases.push_back(
      {"conv2d+group_norm+silu split", {conv_split},
       [&](GraphBuilder& g, const Ids& in) {
         return g.silu(
             g.group_norm(g.conv2d(in[0], cw, cb, 1, 1), gamma, beta, 4));
       },
       [&](const Ts& in) {
         return nn::silu(nn::group_norm(nn::conv2d(in[0], cw, cb, 1, 1),
                                        gamma, beta, 4));
       },
       true});
  cases.push_back(
      {"conv2d_1x1+silu split", {{2, 1, 16, 32}},
       [&](GraphBuilder& g, const Ids& in) {
         return g.silu(g.conv2d(in[0], pw, cb, 1, 0));
       },
       [&](const Ts& in) { return nn::silu(nn::conv2d(in[0], pw, cb, 1, 0)); },
       true});
  cases.push_back(
      {"linear+silu split", {{48, 16}},
       [&](GraphBuilder& g, const Ids& in) {
         return g.silu(g.linear(in[0], lw64, lb64));
       },
       [&](const Ts& in) { return nn::silu(nn::linear(in[0], lw64, lb64)); },
       true});
  for (const Act& act : acts) {
    cases.push_back(
        {std::string("conv2d+") + act.name + " split", {conv_split},
         [&](GraphBuilder& g, const Ids& in) {
           return (g.*act.planned)(g.conv2d(in[0], cw, cb, 1, 1));
         },
         [&](const Ts& in) {
           return act.eager(nn::conv2d(in[0], cw, cb, 1, 1));
         },
         true});
    cases.push_back(
        {std::string("group_norm+") + act.name + " split", {gn_split},
         [&](GraphBuilder& g, const Ids& in) {
           return (g.*act.planned)(g.group_norm(in[0], gamma, beta, 4));
         },
         [&](const Ts& in) {
           return act.eager(nn::group_norm(in[0], gamma, beta, 4));
         },
         true});
  }

  nn::plan::PlanCache cache;
  nn::PackCache packs;
  obs::Counter& tasks = obs::counter("nn.threadpool.tasks");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Ts inputs;
    std::vector<const float*> ptrs;
    for (const std::vector<int>& shape : c.inputs) {
      inputs.push_back(random_tensor(shape, rng));
      ptrs.push_back(inputs.back().value().data());
    }
    std::shared_ptr<const nn::plan::Plan> plan;
    const Status st = cache.get_or_build(
        c.name,
        [&](GraphBuilder& g) {
          Ids ids;
          for (const std::vector<int>& shape : c.inputs) {
            ids.push_back(g.input(shape));
          }
          g.mark_output(c.planned(g, ids));
        },
        packs, &plan);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(plan->num_ops(), 1u);  // one op, or one fully fused chain
    const uint64_t tasks_before = tasks.value();
    std::vector<const float*> outs;
    plan->run(ptrs, &outs);
    if (c.split) {
      EXPECT_GT(plan->output_numel(0), static_cast<size_t>(2 * nn::kActGrain));
      EXPECT_GT(tasks.value(), tasks_before);  // the second thread ran a range
    }
    const Tensor want = c.eager(inputs);
    ASSERT_EQ(plan->output_shape(0), want.shape());
    EXPECT_EQ(std::memcmp(outs[0], want.value().data(),
                          want.numel() * sizeof(float)),
              0);
  }
}

// The standalone activation kernels split into ranges of kActGrain elements
// on the pool; at sizes on both sides of one and two grains, on a 2-thread
// pool, each equals a serial loop of its expression byte for byte.
TEST(PlanCacheTest, ActivationKernelsSplitAcrossRangesMatchSerialLoop) {
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  struct Kernel {
    const char* name;
    void (*run)(const float*, float*, size_t);
    float (*serial)(float);
  };
  const Kernel kernels[] = {
      {"silu", &nn::k_silu,
       [](float a) { return a / (1.0f + std::exp(-a)); }},
      {"tanh", &nn::k_tanh, [](float a) { return std::tanh(a); }},
      {"sigmoid", &nn::k_sigmoid,
       [](float a) { return 1.0f / (1.0f + std::exp(-a)); }},
  };
  constexpr size_t g = nn::kActGrain;
  Rng rng(31);
  for (const size_t n : {g - 1, g, g + 1, 2 * g - 1, 2 * g, 2 * g + 1,
                         5 * g + 3}) {
    std::vector<float> a(n);
    for (float& v : a) v = rng.uniform(-6.0f, 6.0f);
    for (const Kernel& k : kernels) {
      SCOPED_TRACE(std::string(k.name) + " n=" + std::to_string(n));
      std::vector<float> got(n), want(n);
      k.run(a.data(), got.data(), n);
      for (size_t i = 0; i < n; ++i) want[i] = k.serial(a[i]);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0);
    }
  }
}

// ---- one set of weight panels per model ----

// A model is frozen from construction on, so its plans borrow the shared
// PackCache panels: the first planned reconstruct packs each conv weight it
// runs exactly once (the count an eager twin packs), and neither the eager
// path nor a replica's own plans pack anything again.
TEST(PlanPanels, PlansBorrowOnePanelPerConvWeight) {
  core::DCDiffConfig cfg;  // paper widths, random init
  cfg.ddim_steps = 2;
  const Image img = data::dataset_image(data::DatasetId::kKodak, 0, 32);
  const jpeg::CoeffImage coeffs =
      jpeg::decode_jfif(core::sender_encode(img).bytes);
  obs::Counter& misses = obs::counter("nn.packcache.misses");
  obs::Counter& builds = obs::counter("plan.builds");

  core::set_plan_enabled(false);
  const core::DCDiffModel twin(cfg);
  uint64_t before = misses.value();
  (void)twin.reconstruct(coeffs);
  const uint64_t conv_weights = misses.value() - before;
  ASSERT_GT(conv_weights, 0u);

  core::set_plan_enabled(true);
  const auto model = std::make_shared<const core::DCDiffModel>(cfg);
  before = misses.value();
  uint64_t builds_before = builds.value();
  (void)model->reconstruct(coeffs);
  EXPECT_EQ(builds.value(), builds_before + 2);  // UNet step + decoder
  EXPECT_EQ(misses.value() - before, conv_weights);

  core::set_plan_enabled(false);
  before = misses.value();
  (void)model->reconstruct(coeffs);
  EXPECT_EQ(misses.value(), before);
  core::set_plan_enabled(true);

  const auto replica = core::DCDiffModel::replicate(model);
  before = misses.value();
  builds_before = builds.value();
  (void)replica->reconstruct(coeffs);
  EXPECT_EQ(builds.value(), builds_before + 2);
  EXPECT_EQ(misses.value(), before);
}

// ---- one arena per thread ----

// Two threads run one model's plans at once, each on a batch mixing two
// sizes (in opposite orders), so each thread grows its own arena to the
// larger size's plans. Every image equals the serial result byte for byte,
// and nothing falls back to eager.
TEST_F(PlanTest, ConcurrentThreadsRunPlansInTheirOwnArenas) {
  const std::vector<jpeg::CoeffImage> coeffs = two_sizes();
  const std::vector<std::vector<jpeg::CoeffImage>> batches = {
      coeffs, {coeffs[1], coeffs[0]}};
  core::set_plan_enabled(true);
  std::vector<std::vector<Image>> serial;
  for (const auto& batch : batches) {
    serial.push_back(model_->reconstruct_batch(batch));
  }

  const uint64_t growths_before = obs::counter("plan.arena_allocs").value();
  const uint64_t fallbacks_before =
      obs::counter("plan.eager_fallbacks").value();
  constexpr int kRounds = 2;
  std::vector<std::vector<std::vector<Image>>> got(batches.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < batches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        got[t].push_back(model_->reconstruct_batch(batches[t]));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // A new thread starts with an empty arena, so each grew at least once.
  EXPECT_GE(obs::counter("plan.arena_allocs").value() - growths_before,
            batches.size());
  EXPECT_EQ(obs::counter("plan.eager_fallbacks").value(), fallbacks_before);
  for (size_t t = 0; t < batches.size(); ++t) {
    ASSERT_EQ(got[t].size(), static_cast<size_t>(kRounds));
    for (size_t r = 0; r < got[t].size(); ++r) {
      ASSERT_EQ(got[t][r].size(), serial[t].size());
      for (size_t i = 0; i < serial[t].size(); ++i) {
        EXPECT_TRUE(same_bytes(got[t][r][i], serial[t][i]))
            << "thread " << t << " round " << r << " image " << i;
      }
    }
  }
}

// ---- multi-worker serving through the one model's plans ----

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

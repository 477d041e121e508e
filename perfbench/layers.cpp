// Per-layer probes of the traced run: the GEMM ledger (nn), the compiled
// plan and the eager stage split (nn.plan, core), and the entropy coders
// (jpeg, codec). Each probe calls the layer's public functions directly and
// times them with the steady clock.
#include <cstdio>
#include <random>

#include "common.h"
#include "core/autoencoder.h"
#include "core/diffusion.h"
#include "core/fmpp.h"
#include "core/postprocess.h"
#include "core/tensor_image.h"
#include "jpeg/progressive.h"
#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/packcache.h"
#include "nn/rng.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

// Rate of `fn` (which does `flops` floating-point operations per call):
// calls are grouped into blocks of at least 5 ms, and the median block rate
// over 5 blocks is returned in GFLOP/s.
template <typename Fn>
double gflops(double flops, Fn&& fn) {
  fn();  // first touch, workspace growth
  std::vector<double> rates;
  for (int b = 0; b < 5; ++b) {
    int calls = 0;
    const double t0 = now_s();
    double t = t0;
    while (t - t0 < 0.005 || calls < 2) {
      fn();
      ++calls;
      t = now_s();
    }
    rates.push_back(flops * calls / (t - t0) / 1e9);
  }
  return median(rates);
}

std::vector<float> random_floats(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (float& x : v) x = u(rng);
  return v;
}

// Every distinct convolution of the paper-default model at 64x64 input, as
// the GEMM the conv kernel runs per image after im2col: M = output
// channels, K = input channels x 3 x 3 (x 1 x 1 for shortcuts), N = output
// pixels. Derived from the layer definitions of the AE (base 16, 32 AC
// channels), control module and UNet (base 32, 16x16 latent) and FMPP.
struct ConvShape {
  int m, k, n;
  const char* where;
};
const ConvShape kConvShapes[] = {
    {16, 27, 1024, "ae.ac_in control.in"},
    {32, 144, 256, "ae.ac_down control.down"},
    {32, 288, 256, "ae.ac_out control.proj1 unet.res_down unet.res_up.conv2"},
    {48, 324, 256, "ae.dec_res.conv1"},
    {48, 432, 256, "ae.dec_res.conv2"},
    {48, 36, 256, "ae.dec_res.shortcut"},
    {32, 576, 1024, "ae.dec_up1"},
    {16, 288, 4096, "ae.dec_up2"},
    {3, 144, 4096, "ae.dec_out"},
    {64, 288, 64, "control.proj2 unet.res_mid1.conv1"},
    {32, 36, 256, "unet.conv_in"},
    {32, 288, 64, "unet.downsample"},
    {64, 576, 64, "unet.res_mid1.conv2 unet.res_mid2"},
    {64, 32, 64, "unet.res_mid1.shortcut"},
    {32, 864, 256, "unet.res_up.conv1"},
    {32, 96, 256, "unet.res_up.shortcut"},
    {4, 288, 256, "unet.conv_out"},
    {8, 27, 1024, "fmpp.c1"},
    {16, 72, 256, "fmpp.c2"},
    {16, 144, 64, "fmpp.c3"},
};

std::string shape_name(const ConvShape& s) {
  return "m" + std::to_string(s.m) + "_k" + std::to_string(s.k) + "_n" +
         std::to_string(s.n);
}

std::vector<jpeg::CoeffImage> probe_inputs(uint64_t seed, int n) {
  std::vector<jpeg::CoeffImage> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(dc_dropped(
        source_image(data::DatasetId::kKodak, seed, 900 + i, kServeSize)));
  }
  return out;
}

// Median per-image milliseconds of reconstruct_batch over `reps` calls.
double per_image_ms(const core::DCDiffModel& model,
                    const std::vector<jpeg::CoeffImage>& batch, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span("core.reconstruct_batch");
    const double t0 = now_s();
    (void)model.reconstruct_batch(batch);
    ms.push_back(1e3 * (now_s() - t0) / static_cast<double>(batch.size()));
  }
  return median(ms);
}

struct StageSplit {
  double parse = 0, tilde = 0, conditioner = 0, step = 0, decode = 0,
         postprocess = 0;
  Image image;
};

// One eager reconstruction of one bitstream, stage by stage, through the
// public components. The control module and FMPP are rebuilt from the
// config's seed, which gives the model's own weights, so the result must
// equal the model's eager reconstruct_batch.
StageSplit eager_split(const core::DCDiffModel& model,
                       const core::ControlModule& control,
                       const core::FMPP& fmpp,
                       const std::vector<uint8_t>& bytes) {
  const core::DCDiffConfig& cfg = model.config();
  const int ensemble = cfg.sample_ensemble;
  const int steps = cfg.ddim_steps;
  StageSplit sp;
  nn::NoGradGuard no_grad;
  double t = now_s();
  const auto lap = [&t] {
    const double now = now_s();
    const double ms = 1e3 * (now - t);
    t = now;
    return ms;
  };

  jpeg::CoeffImage ci;
  {
    ScopedSpan span("jpeg.try_decode_jfif");
    if (!jpeg::try_decode_jfif(bytes, &ci).is_ok()) return sp;
  }
  sp.parse = lap();

  Image tilde;
  nn::Tensor tilde_t;
  {
    ScopedSpan span("jpeg.tilde_image");
    tilde = pad_to_multiple(jpeg::tilde_image(ci), 8);
    tilde_t = core::tilde_to_tensor(tilde);
  }
  sp.tilde = lap();

  core::ControlModule::Features cond;
  core::ACFeatures ac;
  nn::Tensor s, b;
  {
    ScopedSpan span("core.conditioner");
    cond = control.forward(tilde_t);
    ac = model.autoencoder().encode_ac(tilde_t);
    const core::FMPP::Factors f = fmpp.forward(tilde_t);
    s = core::repeat_batch(f.s, ensemble);
    b = core::repeat_batch(f.b, ensemble);
    cond.c1 = core::repeat_batch(cond.c1, ensemble);
    cond.c2 = core::repeat_batch(cond.c2, ensemble);
  }
  sp.conditioner = lap();

  const int zc = cfg.unet.z_channels;
  const int h = tilde.height() / 4, w = tilde.width() / 4;
  Rng rng(cfg.seed ^ 0x5A3D1Eull);  // the model's sampling seed
  std::vector<float> noise(static_cast<size_t>(ensemble) * zc * h * w);
  for (float& v : noise) v = rng.normal();
  const nn::Tensor noise_t =
      nn::Tensor::from_data({ensemble, zc, h, w}, std::move(noise));
  std::vector<double> step_ms;
  t = now_s();
  nn::Tensor z_rows;
  {
    ScopedSpan span("core.ddim_sample_checkpointed");
    z_rows = core::ddim_sample_checkpointed(
        model.unet(), model.schedule(), cond, noise_t, steps, s, b,
        cfg.prediction, [&](const nn::Tensor&, int) {
          step_ms.push_back(lap());
          return true;
        });
  }
  sp.step = median(step_ms);
  t = now_s();

  nn::Tensor xhat;
  {
    ScopedSpan span("core.decode");
    nn::Tensor acc = core::take_sample(z_rows, 0);
    for (int e = 1; e < ensemble; ++e) {
      acc = nn::add(acc, core::take_sample(z_rows, e));
    }
    xhat = model.autoencoder().decode(
        nn::scale(acc, 1.0f / static_cast<float>(ensemble)), ac);
  }
  sp.decode = lap();

  {
    ScopedSpan span("core.postprocess");
    Image rgb = core::anchor_to_corners(core::tensor_to_rgb(xhat), tilde);
    if (rgb.width() != ci.width || rgb.height() != ci.height) {
      rgb = crop(rgb, 0, 0, ci.width, ci.height);
    }
    sp.image = core::project_onto_known_ac(rgb, ci);
  }
  sp.postprocess = lap();
  return sp;
}

}  // namespace

void probe_gemm_ledger(Report& report) {
  constexpr int64_t kCeil = 512;
  {
    const auto a = random_floats(kCeil * kCeil, 1);
    const auto bm = random_floats(kCeil * kCeil, 2);
    std::vector<float> c(kCeil * kCeil);
    ScopedSpan span("nn.gemm.ceiling");
    const double g = gflops(2.0 * kCeil * kCeil * kCeil, [&] {
      nn::gemm(false, false, kCeil, kCeil, kCeil, a.data(), kCeil, bm.data(),
               kCeil, 0.0f, c.data(), kCeil);
    });
    report.set("nn.gemm.ceiling_gflops", g);
  }
  const double ceiling = report.metrics["nn.gemm.ceiling_gflops"];
  report.info["nn.gemm.method"] =
      "GFLOP/s from 2*M*K*N per image; bytes 4*(M*K+K*N+M*N) per image; both "
      "computed from the shapes, not counted. Conv shapes run through "
      "nn::PackedA (pre-packed weights, the conv kernel's path), batch B = B "
      "back-to-back images; the ceiling is nn::gemm at 512^3 in the same run.";
  for (const ConvShape& s : kConvShapes) {
    const auto a = random_floats(static_cast<size_t>(s.m) * s.k, 3);
    const nn::PackedA packed(false, s.m, s.k, a.data(), s.k);
    for (const int batch : {1, 4}) {
      const auto bm = random_floats(static_cast<size_t>(batch) * s.k * s.n, 4);
      std::vector<float> c(static_cast<size_t>(batch) * s.m * s.n);
      ScopedSpan span("nn.gemm.conv_shape");
      const double g = gflops(2.0 * s.m * s.k * s.n * batch, [&] {
        for (int i = 0; i < batch; ++i) {
          packed.run(s.n, bm.data() + static_cast<size_t>(i) * s.k * s.n, s.n,
                     0.0f, c.data() + static_cast<size_t>(i) * s.m * s.n, s.n);
        }
      });
      const std::string name =
          "nn.gemm." + shape_name(s) + ".b" + std::to_string(batch);
      report.set(name + "_gflops", g);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s; share of ceiling %.3f; %.0f FLOP, %.0f bytes per "
                    "image (computed)",
                    s.where, g / ceiling, 2.0 * s.m * s.k * s.n,
                    4.0 * (static_cast<double>(s.m) * s.k +
                           static_cast<double>(s.k) * s.n +
                           static_cast<double>(s.m) * s.n));
      report.info[name] = buf;
    }
  }
}

void probe_core(const std::shared_ptr<const core::DCDiffModel>& model,
                uint64_t seed, Report& report) {
  const std::vector<jpeg::CoeffImage> four = probe_inputs(seed, 4);
  const std::vector<jpeg::CoeffImage> one(four.begin(), four.begin() + 1);

  // A fresh replica shares the weights but compiles its own plans, so its
  // first call pays the compile: compile time is the median first call of
  // five fresh replicas minus the median steady-state call.
  std::vector<double> first_ms;
  std::shared_ptr<const core::DCDiffModel> replica;
  for (int r = 0; r < 5; ++r) {
    replica = core::DCDiffModel::replicate(model);
    ScopedSpan span("core.reconstruct_batch.first");
    const double t0 = now_s();
    (void)replica->reconstruct_batch(one);
    first_ms.push_back(1e3 * (now_s() - t0));
  }
  report.set("plan.arena_bytes", obs::gauge("plan.arena_bytes").value());
  const double planned_b1 = per_image_ms(*replica, one, 5);
  report.set("plan.compile_s", (median(first_ms) - planned_b1) / 1e3);
  report.set("core.reconstruct_ms.planned_b1", planned_b1);
  report.set("core.reconstruct_ms.planned_b4", per_image_ms(*replica, four, 3));
  core::set_plan_enabled(0);
  report.set("core.reconstruct_ms.eager_b1", per_image_ms(*replica, one, 3));
  report.set("core.reconstruct_ms.eager_b4", per_image_ms(*replica, four, 2));
  const Image eager = replica->reconstruct_batch(one)[0];
  core::set_plan_enabled(-1);
  report.set("plan.eager_fallbacks",
             static_cast<double>(obs::counter("plan.eager_fallbacks").value()));

  const core::DCDiffConfig& cfg = model->config();
  const core::ControlModule control(cfg.unet, cfg.seed);
  const core::FMPP fmpp(cfg.seed);
  nn::PackCache packs;  // weight panels packed once, as the model does
  nn::PackCacheBinding bind(&packs);
  const std::vector<uint8_t> bytes = jpeg::encode_jfif(one[0]);
  (void)eager_split(*model, control, fmpp, bytes);  // pack weights
  std::vector<StageSplit> runs;
  for (int r = 0; r < 3; ++r) runs.push_back(eager_split(*model, control, fmpp, bytes));
  const auto med = [&](double StageSplit::*field) {
    std::vector<double> v;
    for (const StageSplit& s : runs) v.push_back(s.*field);
    return median(v);
  };
  report.set("core.parse_ms", med(&StageSplit::parse));
  report.set("core.tilde_ms", med(&StageSplit::tilde));
  report.set("core.conditioner_ms", med(&StageSplit::conditioner));
  report.set("core.ddim_step_ms", med(&StageSplit::step));
  report.set("core.decode_ms", med(&StageSplit::decode));
  report.set("core.postprocess_ms", med(&StageSplit::postprocess));
  const double d = max_abs_diff(runs.back().image, eager);
  if (d > 1e-4) {
    report.fail("eager stage split differs from reconstruct_batch by " +
                std::to_string(d));
  }
}

void probe_codec_layers(uint64_t seed, Report& report) {
  struct Acc {
    double enc_s = 0, dec_s = 0, mpix = 0;
  };
  Acc acc[4];  // baseline/progressive x huffman/cm
  for (int image = 0; image < 3; ++image) {
    const jpeg::CoeffImage ci = dc_dropped(source_mosaic(seed, 50 + image, 512));
    const double mpix = static_cast<double>(ci.width) * ci.height / 1e6;
    for (int v = 0; v < 4; ++v) {
      const bool progressive = v >= 2;
      const jpeg::EntropyKind kind =
          v % 2 == 0 ? jpeg::EntropyKind::kHuffman : jpeg::EntropyKind::kCm;
      // Huffman calls are short; repeat them so each timing spans ~20 ms.
      const int reps = kind == jpeg::EntropyKind::kHuffman ? 8 : 1;
      for (int r = 0; r < reps; ++r) {
        std::vector<uint8_t> bytes;
        jpeg::CoeffImage back;
        const double t0 = now_s();
        bytes = progressive
                    ? jpeg::encode_progressive(ci, jpeg::ProgressiveConfig(), kind)
                    : jpeg::encode_jfif(ci, kind);
        const double t1 = now_s();
        const Status st = progressive ? jpeg::try_decode_progressive(bytes, &back)
                                      : jpeg::try_decode_jfif(bytes, &back);
        const double t2 = now_s();
        if (!st.is_ok() || !same_coefficients(back, ci)) {
          report.fail("codec probe: decode differs from the encoder input");
        }
        acc[v].enc_s += t1 - t0;
        acc[v].dec_s += t2 - t1;
        acc[v].mpix += mpix;
      }
    }
  }
  const auto us_per_mpix = [](double s, double mpix) { return 1e6 * s / mpix; };
  report.set("jpeg.encode_us_per_mpix.baseline_huffman",
             us_per_mpix(acc[0].enc_s, acc[0].mpix));
  report.set("jpeg.decode_us_per_mpix.baseline_huffman",
             us_per_mpix(acc[0].dec_s, acc[0].mpix));
  report.set("jpeg.encode_us_per_mpix.progressive_huffman",
             us_per_mpix(acc[2].enc_s, acc[2].mpix));
  report.set("jpeg.decode_us_per_mpix.progressive_huffman",
             us_per_mpix(acc[2].dec_s, acc[2].mpix));
  report.set("codec.cm_encode_us_per_mpix",
             us_per_mpix(acc[1].enc_s + acc[3].enc_s, acc[1].mpix + acc[3].mpix));
  report.set("codec.cm_decode_us_per_mpix",
             us_per_mpix(acc[1].dec_s + acc[3].dec_s, acc[1].mpix + acc[3].mpix));
}

int run_plan_profile(uint64_t seed) {
  const auto model = make_model();
  const std::vector<jpeg::CoeffImage> one = probe_inputs(seed, 1);
  for (int r = 0; r < 3; ++r) (void)model->reconstruct_batch(one);
  return 0;
}

}  // namespace perfbench

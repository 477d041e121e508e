#include "core/running_batch.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>

#include "core/postprocess.h"
#include "core/tensor_image.h"
#include "jpeg/dcdrop.h"
#include "nn/kernels.h"
#include "nn/packcache.h"
#include "nn/plan/builder.h"
#include "nn/plan/cache.h"
#include "nn/rng.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fault.h"

namespace dcdiff::core {

using namespace dcdiff::nn;

namespace {

// Coordinate-seeded noise field (ReconstructOptions::coord_noise): the
// sample at absolute latent coordinate (c, y0 + y, x0 + x) for ensemble
// member `e` depends only on those coordinates and the seed, so the noise
// of a crop equals the same crop of the full field — the property tiled
// sampling needs to be comparable with an untiled run. Writes the (ch, h, w)
// field to `out`.
void coord_noise_field(uint64_t seed, int e, int ch, int h, int w, int y0,
                       int x0, float* out) {
  for (int c = 0; c < ch; ++c) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const uint64_t key =
            (static_cast<uint64_t>(static_cast<uint32_t>(e)) << 56) ^
            (static_cast<uint64_t>(static_cast<uint32_t>(c)) << 48) ^
            (static_cast<uint64_t>(static_cast<uint32_t>(y0 + y)) << 24) ^
            static_cast<uint64_t>(static_cast<uint32_t>(x0 + x));
        Rng rng(seed ^ (key * 0x9E3779B97F4A7C15ull + 0xD6E8FEB86659FD93ull));
        *out++ = rng.normal();
      }
    }
  }
}

// Copies `count` rows of `per` floats from row `from` to row `to`.
void move_rows(std::vector<float>& buf, size_t per, size_t from, size_t to,
               size_t count) {
  std::copy_n(buf.begin() + static_cast<long>(from * per),
              static_cast<long>(count * per),
              buf.begin() + static_cast<long>(to * per));
}

// Runs `p` in the thread's arena and copies its output to `dst` at once, so
// nothing lives in the arena between runs.
void run_into(const plan::Plan& p, const std::vector<const float*>& inputs,
              float* dst) {
  std::vector<const float*> outs;
  p.run(inputs, &outs);
  std::copy_n(outs[0], p.output_numel(0), dst);
}

}  // namespace

RunningBatch::RunningBatch(const DCDiffModel& model, int max_requests,
                           int ensemble, int height, int width)
    : model_(model),
      capacity_(max_requests),
      ensemble_(ensemble),
      height_(height),
      width_(width) {
  if (max_requests < 1 || ensemble < 1 || height % 8 != 0 ||
      width % 8 != 0 || height < 8 || width < 8) {
    throw std::invalid_argument("RunningBatch: bad capacity or size");
  }
  const UNetConfig& uc = model.cfg_.unet;
  const size_t hw = static_cast<size_t>(height / 4) *
                    static_cast<size_t>(width / 4);
  z_per_ = static_cast<size_t>(uc.z_channels) * hw;
  c1_per_ = static_cast<size_t>(uc.base) * hw;
  c2_per_ = static_cast<size_t>(2 * uc.base) * hw / 4;
  reqs_.reserve(static_cast<size_t>(max_requests));
}

RunningBatch::~RunningBatch() = default;

std::pair<int, int> RunningBatch::padded_size(const jpeg::CoeffImage& coeffs) {
  const auto up8 = [](int v) { return (v + 7) / 8 * 8; };
  return {up8(coeffs.height), up8(coeffs.width)};
}

int RunningBatch::admit(const AnytimeItem& item,
                        const ReconstructOptions& opts) {
  NoGradGuard no_grad;
  PackCacheBinding packs(model_.packs_.get());
  const DCDiffConfig& cfg = model_.cfg_;
  const int ensemble =
      opts.ensemble > 0 ? opts.ensemble : std::max(1, cfg.sample_ensemble);
  if (size() == capacity_ || ensemble != ensemble_ ||
      padded_size(*item.coeffs) != std::make_pair(height_, width_)) {
    throw std::invalid_argument(
        "RunningBatch::admit: batch full, or size or ensemble differs");
  }
  Request r;
  r.coeffs = item.coeffs;
  r.postprocess = opts.postprocess;
  r.ts = model_.sched_.ddim_timesteps(opts.ddim_steps > 0 ? opts.ddim_steps
                                                          : cfg.ddim_steps);
  const size_t row0 = reqs_.size() * static_cast<size_t>(ensemble_);
  // The row buffers grow to the most requests the batch has held.
  const size_t rows = row0 + static_cast<size_t>(ensemble_);
  if (s_.size() < rows) {
    for (auto [buf, per] : buffers()) buf->resize(rows * per);
  }

  // Noise rows, members adjacent: a fresh Rng(noise_seed) drawn back to
  // back, or the coordinate-seeded field at the item's origin. A request's
  // rows are the same whichever batch it is in.
  const uint64_t noise_seed = (opts.seed ? opts.seed : cfg.seed) ^ 0x5A3D1Eull;
  float* row = z_.data() + row0 * z_per_;
  Rng rng(noise_seed);
  for (int e = 0; e < ensemble_; ++e, row += z_per_) {
    if (opts.coord_noise) {
      coord_noise_field(noise_seed, e, cfg.unet.z_channels, height_ / 4,
                        width_ / 4, item.noise_y0, item.noise_x0, row);
    } else {
      for (size_t v = 0; v < z_per_; ++v) row[v] = rng.normal();
    }
  }

  // The step conditioner runs once on the request's image: its control
  // features and FreeU factors (ones when FMPP is off) repeat over its rows.
  {
    DCDIFF_TRACE_SPAN("conditioner");
    const Tensor tilde_t =
        tilde_to_tensor(pad_to_multiple(jpeg::tilde_image(*item.coeffs), 8));
    const ControlModule::Features cond = model_.control_->forward(tilde_t);
    float s = 1.0f, b = 1.0f;
    if (opts.use_fmpp) {
      const FMPP::Factors f = model_.fmpp_->forward(tilde_t);
      s = f.s.value()[0];
      b = f.b.value()[0];
    }
    for (size_t e = 0; e < static_cast<size_t>(ensemble_); ++e) {
      std::copy_n(cond.c1.value().data(), c1_per_,
                  c1_.data() + (row0 + e) * c1_per_);
      std::copy_n(cond.c2.value().data(), c2_per_,
                  c2_.data() + (row0 + e) * c2_per_);
      s_[row0 + e] = s;
      b_[row0 + e] = b;
    }
  }
  r.id = next_id_++;
  reqs_.push_back(std::move(r));
  return reqs_.back().id;
}

void RunningBatch::step() {
  if (reqs_.empty()) return;
  NoGradGuard no_grad;
  PackCacheBinding packs(model_.packs_.get());
  DCDIFF_TRACE_SPAN("ddim_step");
  static obs::Histogram& step_lat = obs::histogram("core.ddim.step_seconds");
  static obs::Counter& step_count = obs::counter("core.ddim.steps");
  // Latent rows sharing this step (requests x ensemble members).
  static obs::Histogram& rows_hist = obs::histogram(
      "core.ddim.batch_rows", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  obs::ScopedLatency step_timer(step_lat);
  step_count.inc();
  const int n = size();
  const int rows = n * ensemble_;
  rows_hist.observe(static_cast<double>(rows));

  // Every row at its request's own step of its own chain.
  t_.clear();
  t_prev_.clear();
  for (const Request& r : reqs_) {
    const int k = static_cast<int>(r.ts.size()) - 1 - r.done;
    if (k < 0) {
      throw std::logic_error("RunningBatch::step: a request has no step left");
    }
    const int t = r.ts[static_cast<size_t>(k)];
    const int t_prev = k > 0 ? r.ts[static_cast<size_t>(k - 1)] : -1;
    t_.insert(t_.end(), static_cast<size_t>(ensemble_), t);
    t_prev_.insert(t_prev_.end(), static_cast<size_t>(ensemble_), t_prev);
  }

  if (open_plans(n)) {
    const Tensor temb = timestep_embedding(t_, model_.cfg_.unet.temb_dim);
    run_into(*step_plan_,
             {z_.data(), temb.value().data(), c1_.data(), c2_.data(),
              s_.data(), b_.data()},
             pred_.data());
  } else {
    const UNetConfig& uc = model_.cfg_.unet;
    const int h = height_ / 4, w = width_ / 4;
    const auto rows_of = [rows](const std::vector<float>& buf, size_t per,
                                std::vector<int> shape) {
      return Tensor::from_data(
          std::move(shape),
          std::vector<float>(buf.begin(),
                             buf.begin() + static_cast<long>(rows * per)));
    };
    ControlModule::Features ctrl;
    ctrl.c1 = rows_of(c1_, c1_per_, {rows, uc.base, h, w});
    ctrl.c2 = rows_of(c2_, c2_per_, {rows, 2 * uc.base, h / 2, w / 2});
    const Tensor pred = model_.unet_->forward(
        rows_of(z_, z_per_, {rows, uc.z_channels, h, w}), t_, ctrl,
        rows_of(s_, 1, {rows}), rows_of(b_, 1, {rows}));
    std::copy_n(pred.value().data(), static_cast<size_t>(rows) * z_per_,
                pred_.data());
  }
  ddim_step(model_.sched_, model_.cfg_.prediction, rows, z_per_, t_.data(),
            t_prev_.data(), pred_.data(), z_.data(), z0_.data());
  for (Request& r : reqs_) ++r.done;
}

int RunningBatch::steps_done(int id) const {
  return reqs_[index_of(id)].done;
}

Image RunningBatch::checkpoint(int id, double* psnr_proxy) {
  static obs::Counter& partials_c = obs::counter("core.anytime.partials");
  DCDIFF_TRACE_SPAN("anytime_partial");
  // Fault site: a checkpoint decode that throws. It must fail only its own
  // request, as a typed internal error at the caller's API boundary, and
  // leave every row of the batch intact.
  if (DCDIFF_FAULT_POINT("core.anytime.checkpoint_throw")) {
    throw std::runtime_error("injected fault: core.anytime.checkpoint_throw");
  }
  const size_t i = index_of(id);
  std::vector<float> cur = fold(i);
  // Convergence proxy: PSNR-style distance to the request's previous
  // checkpoint over the clamp range [-1.2, 1.2].
  std::vector<float>& prev = reqs_[i].emitted;
  double proxy = 0.0;
  if (!prev.empty()) {
    double mse = 0;
    for (size_t v = 0; v < cur.size(); ++v) {
      const double d = cur[v] - prev[v];
      mse += d * d;
    }
    mse /= static_cast<double>(cur.size());
    proxy = mse <= 0 ? 99.0 : std::min(99.0, 10.0 * std::log10(5.76 / mse));
  }
  prev = cur;
  if (psnr_proxy != nullptr) *psnr_proxy = proxy;
  partials_c.inc();
  return decode(i, std::move(cur));
}

Image RunningBatch::retire(int id) {
  const size_t i = index_of(id);
  Image image;
  try {
    image = decode(i, fold(i));
  } catch (...) {
    remove(i);
    throw;
  }
  remove(i);
  return image;
}

void RunningBatch::drop(int id) { remove(index_of(id)); }

size_t RunningBatch::index_of(int id) const {
  for (size_t i = 0; i < reqs_.size(); ++i) {
    if (reqs_[i].id == id) return i;
  }
  throw std::out_of_range("RunningBatch: no running request " +
                          std::to_string(id));
}

std::vector<float> RunningBatch::fold(size_t i) const {
  std::vector<float> out(z_per_);
  k_ensemble_mean(z0_.data() + i * static_cast<size_t>(ensemble_) * z_per_,
                  out.data(), 1, ensemble_, z_per_);
  return out;
}

Image RunningBatch::decode(size_t i, std::vector<float> z0) {
  NoGradGuard no_grad;
  PackCacheBinding packs(model_.packs_.get());
  const Request& r = reqs_[i];
  const jpeg::CoeffImage& ci = *r.coeffs;
  // The x-tilde and the decoder's AC features are computed again here
  // rather than kept from admission: a request holds nothing image-sized
  // between steps (the x-tilde is about 0.1 ms at 64 px).
  const Image tilde = pad_to_multiple(jpeg::tilde_image(ci), 8);
  Tensor xhat;
  {
    DCDIFF_TRACE_SPAN("decode");
    const ACFeatures ac = model_.ae_->encode_ac(tilde_to_tensor(tilde));
    if (plan_enabled() && decoder_plan_) {
      std::vector<float> out(static_cast<size_t>(3 * height_ * width_));
      run_into(*decoder_plan_,
               {z0.data(), ac.quarter.value().data(), ac.half.value().data()},
               out.data());
      xhat = Tensor::from_data({1, 3, height_, width_}, std::move(out));
    } else {
      xhat = model_.ae_->decode(
          Tensor::from_data(
              {1, model_.cfg_.unet.z_channels, height_ / 4, width_ / 4},
              std::move(z0)),
          ac);
    }
  }
  // Corner anchoring, crop to the coded size, known-AC projection
  // (anchoring and projection only with the request's postprocess).
  Image rgb = tensor_to_rgb(xhat);
  if (r.postprocess) rgb = anchor_to_corners(rgb, tilde);
  if (rgb.width() != ci.width || rgb.height() != ci.height) {
    rgb = crop(rgb, 0, 0, ci.width, ci.height);
  }
  return r.postprocess ? project_onto_known_ac(rgb, ci) : rgb;
}

void RunningBatch::remove(size_t i) {
  const size_t last = reqs_.size() - 1;
  if (i != last) {
    const size_t e = static_cast<size_t>(ensemble_);
    for (auto [buf, per] : buffers()) move_rows(*buf, per, last * e, i * e, e);
    reqs_[i] = std::move(reqs_[last]);
  }
  reqs_.pop_back();
}

std::array<std::pair<std::vector<float>*, size_t>, 7> RunningBatch::buffers() {
  return {{{&z_, z_per_},
           {&z0_, z_per_},
           {&pred_, z_per_},
           {&c1_, c1_per_},
           {&c2_, c2_per_},
           {&s_, 1},
           {&b_, 1}}};
}

bool RunningBatch::open_plans(int n) {
  static obs::Counter& fallbacks_c = obs::counter("plan.eager_fallbacks");
  if (plan_enabled() && plans_for_ == n) return step_plan_ != nullptr;
  step_plan_.reset();
  decoder_plan_.reset();
  plans_for_ = 0;
  if (!plan_enabled()) return false;
  plans_for_ = n;
  // A build or arena failure is logged where it happens; this request count
  // runs eager until the count changes.
  const UNet& unet = *model_.unet_;
  const Autoencoder& ae = *model_.ae_;
  const UNetConfig& uc = unet.config();
  const AutoencoderConfig& ac = ae.config();
  const int rows = n * ensemble_, h = height_ / 4, w = width_ / 4;
  const std::string hw = std::to_string(h) + "x" + std::to_string(w);
  std::shared_ptr<const plan::Plan> step, decoder;
  Status st = model_.plans_->get_or_build(
      "unet_r" + std::to_string(rows) + "_" + hw,
      [&](plan::GraphBuilder& g) {
        const plan::TensorId z = g.input({rows, uc.z_channels, h, w});
        const plan::TensorId temb = g.input({rows, uc.temb_dim});
        const plan::TensorId c1 = g.input({rows, uc.base, h, w});
        const plan::TensorId c2 = g.input({rows, 2 * uc.base, h / 2, w / 2});
        const plan::TensorId s = g.input({rows});
        const plan::TensorId b = g.input({rows});
        g.mark_output(unet.capture(g, z, temb, c1, c2, s, b));
      },
      *model_.packs_, &step);
  if (st.is_ok()) {
    st = model_.plans_->get_or_build(
        "decoder_" + hw,
        [&](plan::GraphBuilder& g) {
          const plan::TensorId z = g.input({1, ac.z_channels, h, w});
          const plan::TensorId quarter = g.input({1, ac.ac_channels, h, w});
          const plan::TensorId half = g.input({1, ac.base, 2 * h, 2 * w});
          g.mark_output(ae.capture_decode(g, z, quarter, half));
        },
        *model_.packs_, &decoder);
  }
  if (st.is_ok()) {
    try {
      plan::reserve_thread_arena(
          std::max(step->arena_floats(), decoder->arena_floats()));
    } catch (const std::exception& e) {
      st = Status::internal(std::string("plan arena: ") + e.what());
      DCDIFF_LOG_WARN("core.plan", "arena_failed", {{"error", st.to_string()}});
    }
  }
  if (!st.is_ok()) {
    fallbacks_c.inc();
    return false;
  }
  step_plan_ = std::move(step);
  decoder_plan_ = std::move(decoder);
  return true;
}

}  // namespace dcdiff::core

#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <utility>

#include <atomic>

#include "core/losses.h"
#include "core/running_batch.h"
#include "core/tensor_image.h"
#include "data/datasets.h"
#include "jpeg/dcdrop.h"
#include "nn/cache.h"
#include "nn/optim.h"
#include "nn/packcache.h"
#include "nn/plan/cache.h"
#include "nn/serialize.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcdiff::core {

using namespace dcdiff::nn;

namespace {

std::atomic<bool> g_plan_enabled{true};

void set_requires_grad(const std::vector<Tensor>& params, bool value) {
  for (Tensor p : params) p.set_requires_grad(value);
}

// The parameters one train_* call steps: unfrozen for the duration of the
// call, frozen again when it returns or throws.
struct Unfrozen {
  explicit Unfrozen(std::vector<Tensor> p) : params(std::move(p)) {
    set_requires_grad(params, true);
  }
  ~Unfrozen() { set_requires_grad(params, false); }
  Unfrozen(const Unfrozen&) = delete;
  Unfrozen& operator=(const Unfrozen&) = delete;
  std::vector<Tensor> params;
};

}  // namespace

bool plan_enabled() { return g_plan_enabled.load(std::memory_order_relaxed); }

void set_plan_enabled(bool enabled) {
  g_plan_enabled.store(enabled, std::memory_order_relaxed);
}

struct DCDiffModel::Sample {
  Tensor x0;     // (1,3,H,W) in [-1,1]
  Tensor tilde;  // (1,3,H,W) x-tilde / 128
  Tensor mask;   // (1,1,H,W) Eq. 3 mask
};

DCDiffModel::DCDiffModel(const DCDiffConfig& cfg)
    : cfg_(cfg), sched_(DiffusionSchedule::linear(cfg.diffusion_T)) {
  // Legacy `verbose` flag: alias for DCDIFF_LOG_LEVEL=debug (only ever
  // raises verbosity; an explicit env setting below debug is respected).
  if (cfg_.verbose && obs::log_level() > obs::LogLevel::kDebug) {
    obs::set_log_level(obs::LogLevel::kDebug);
  }
  ae_ = std::make_shared<Autoencoder>(cfg.ae, cfg.seed);
  disc_ = std::make_shared<PatchDiscriminator>(cfg.seed ^ 0xD15Cull);
  control_ = std::make_shared<ControlModule>(cfg.unet, cfg.seed);
  unet_ = std::make_shared<UNet>(cfg.unet, cfg.seed);
  fmpp_ = std::make_shared<FMPP>(cfg.seed);
  packs_ = std::make_shared<nn::PackCache>();
  plans_ = std::make_shared<nn::plan::PlanCache>();
  set_requires_grad(params(), false);
}

DCDiffModel::~DCDiffModel() = default;

DCDiffModel::DCDiffModel(const DCDiffModel& src, ReplicaTag)
    : cfg_(src.cfg_),
      sched_(src.sched_),
      replica_(true),
      ae_(src.ae_),
      disc_(src.disc_),
      control_(src.control_),
      unet_(src.unet_),
      fmpp_(src.fmpp_),
      packs_(src.packs_),
      // A replica starts with an empty plan cache of its own (the weights
      // and panels its plans use stay shared via the components).
      plans_(std::make_shared<nn::plan::PlanCache>()) {}

std::shared_ptr<const DCDiffModel> DCDiffModel::replicate(
    const std::shared_ptr<const DCDiffModel>& src) {
  if (!src) {
    throw std::invalid_argument("DCDiffModel::replicate: null source");
  }
  static obs::Counter& replicas = obs::counter("core.pool.replicas");
  replicas.inc();
  return std::shared_ptr<const DCDiffModel>(
      new DCDiffModel(*src, ReplicaTag{}));
}

std::vector<Tensor> DCDiffModel::params() const {
  std::vector<Tensor> p;
  for (const std::vector<Tensor>& part :
       {ae_->params(), disc_->params(), control_->params(), unet_->params(),
        fmpp_->params()}) {
    p.insert(p.end(), part.begin(), part.end());
  }
  return p;
}

void DCDiffModel::begin_training(const char* what) {
  if (replica_) {
    throw std::logic_error(std::string(what) +
                           ": replicas share frozen weights and cannot train");
  }
  // The weights are about to change: panels packed from them and plans
  // compiled over them would be stale.
  packs_ = std::make_shared<nn::PackCache>();
  plans_ = std::make_shared<nn::plan::PlanCache>();
}

DCDiffModel::Sample DCDiffModel::make_sample(int index) const {
  Sample s;
  const Image x0 = data::training_image(index, cfg_.image_size);
  auto coeffs = jpeg::forward_transform(x0, cfg_.quality);
  jpeg::drop_dc(coeffs);
  const Image tilde = jpeg::tilde_image(coeffs);
  s.x0 = rgb_to_tensor(x0);
  s.tilde = tilde_to_tensor(tilde);
  s.mask = laplacian_mask(tilde, cfg_.mask_threshold);
  return s;
}

namespace {

Tensor randn_like_shape(std::vector<int> shape, Rng& rng) {
  std::vector<float> data(shape_numel(shape));
  for (float& v : data) v = rng.normal();
  return Tensor::from_data(std::move(shape), std::move(data));
}

}  // namespace

void DCDiffModel::train_stage1() {
  begin_training("train_stage1");
  DCDIFF_TRACE_SPAN("train_stage1");
  DCDIFF_LOG_INFO("core.train", "stage1_begin",
                  {{"steps", cfg_.stage1_steps}, {"batch", cfg_.batch}});
  static obs::Counter& steps_done = obs::counter("core.train.stage1_steps");
  const Unfrozen ae(ae_->params());
  const Unfrozen disc(disc_->params());
  Adam opt(ae.params, 1e-3f);
  Adam dopt(disc.params, 1e-3f);
  Rng rng(cfg_.seed ^ 0x57A6E1ull);
  const int gan_start = cfg_.stage1_steps / 3;
  for (int step = 0; step < cfg_.stage1_steps; ++step) {
    if (step == (3 * cfg_.stage1_steps) / 5) opt.set_lr(opt.lr() * 0.4f);
    std::vector<Tensor> x0s, tildes;
    for (int i = 0; i < cfg_.batch; ++i) {
      const Sample s = make_sample(rng.uniform_int(0, 1 << 20));
      x0s.push_back(s.x0);
      tildes.push_back(s.tilde);
    }
    const Tensor x0 = stack_batch(x0s);
    const Tensor tilde = stack_batch(tildes);

    const Tensor z = ae_->encode_dc(x0);
    const ACFeatures ac = ae_->encode_ac(tilde);
    const Tensor xhat = ae_->decode(z, ac);

    // L_fir = L_rec + L_per + L_dis (Eq. 5), plus the DC-fidelity term
    // (block-mean MSE): E^DC exists to carry the DC field, so the
    // reconstruction's 8x8 means are the quantity that must be right.
    Tensor loss = add(l1_loss(xhat, x0),
                      scale(gradient_l1_loss(xhat, x0), 0.5f));
    loss = add(loss, scale(mse_loss(avg_pool2d(xhat, 8), avg_pool2d(x0, 8)),
                           cfg_.dc_weight));
    const bool gan = step >= gan_start;
    if (gan) {
      loss = add(loss, scale(hinge_g_loss(disc_->forward(xhat)), 0.05f));
    }
    opt.zero_grad();
    dopt.zero_grad();  // generator pass also touches disc grads
    loss.backward();
    opt.step();
    steps_done.inc();
    if (step % 100 == 0) {
      DCDIFF_LOG_DEBUG("core.train", "stage1_step",
                       {{"step", step},
                        {"total", cfg_.stage1_steps},
                        {"loss", loss.item()},
                        {"gan", gan ? 1 : 0}});
    }

    if (gan) {
      const Tensor d_real = disc_->forward(x0);
      const Tensor d_fake = disc_->forward(xhat.detach());
      Tensor d_loss = hinge_d_loss(d_real, d_fake);
      dopt.zero_grad();
      d_loss.backward();
      dopt.step();
    }
  }
}

void DCDiffModel::train_stage2() {
  begin_training("train_stage2");
  DCDIFF_TRACE_SPAN("train_stage2");
  DCDIFF_LOG_INFO("core.train", "stage2_begin",
                  {{"steps", cfg_.stage2_steps},
                   {"batch", cfg_.batch},
                   {"use_mld", cfg_.use_mld ? 1 : 0}});
  static obs::Counter& steps_done = obs::counter("core.train.stage2_steps");
  // Stage 2 keeps E^DC, E^AC and D frozen (paper Section III-E) and trains
  // the noise prediction network + control module.
  std::vector<Tensor> params = unet_->params();
  {
    auto cp = control_->params();
    params.insert(params.end(), cp.begin(), cp.end());
  }
  const Unfrozen trained(std::move(params));
  Adam opt(trained.params, 1e-3f);
  Rng rng(cfg_.seed ^ 0xD1FFu);
  // Paper: finetune with L_ldm first, then add the pixel-space terms.
  // The decode branch (DC fidelity + corner anchor) always runs in the
  // second phase; only the MLD term itself is gated by use_mld, so the
  // "w/o MLD" ablation isolates exactly that loss.
  const int decode_start = cfg_.stage2_steps / 4;
  for (int step = 0; step < cfg_.stage2_steps; ++step) {
    if (step == (7 * cfg_.stage2_steps) / 10) opt.set_lr(opt.lr() * 0.4f);
    std::vector<Tensor> x0s, tildes, masks;
    for (int i = 0; i < cfg_.batch; ++i) {
      const Sample s = make_sample(rng.uniform_int(0, 1 << 20));
      x0s.push_back(s.x0);
      tildes.push_back(s.tilde);
      masks.push_back(s.mask);
    }
    const Tensor x0 = stack_batch(x0s);
    const Tensor tilde = stack_batch(tildes);
    const Tensor mask = stack_batch(masks);

    Tensor z0;
    ACFeatures acfeat;
    {
      NoGradGuard no_grad;
      z0 = ae_->encode_dc(x0);
      acfeat = ae_->encode_ac(tilde);
    }
    std::vector<int> t(static_cast<size_t>(z0.dim(0)));
    for (int& ti : t) ti = rng.uniform_int(0, sched_.T - 1);
    const Tensor eps = randn_like_shape(z0.shape(), rng);
    const Tensor z_t = q_sample(z0, eps, sched_, t);

    const ControlModule::Features ctrl = control_->forward(tilde);
    const Tensor pred = unet_->forward(z_t, t, ctrl);
    // L_ldm: match the network's parameterization target.
    Tensor loss = cfg_.prediction == Prediction::kEps ? mse_loss(pred, eps)
                                                      : mse_loss(pred, z0);
    const float ldm_value = loss.item();
    if (step >= decode_start) {
      // Project to z0, decode to pixel space (Markov projection of III-E).
      const Tensor z0_pred = cfg_.prediction == Prediction::kEps
                                 ? predict_z0(z_t, pred, sched_, t)
                                 : pred;
      const Tensor xhat = ae_->decode(z0_pred, acfeat);
      const Tensor corners = corner_mask(cfg_.image_size, cfg_.image_size);
      loss = add(loss, scale(masked_mse(xhat, x0, corners),
                             cfg_.corner_weight));
      loss = add(loss,
                 scale(mse_loss(avg_pool2d(xhat, 8), avg_pool2d(x0, 8)),
                       cfg_.dc_weight));
      if (cfg_.use_mld) {
        loss = add(loss, scale(mld_loss(xhat, mask), cfg_.mld_weight));
      }
    }
    opt.zero_grad();
    loss.backward();
    opt.step();
    steps_done.inc();
    if (step % 100 == 0) {
      DCDIFF_LOG_DEBUG("core.train", "stage2_step",
                       {{"step", step},
                        {"total", cfg_.stage2_steps},
                        {"loss", loss.item()},
                        {"ldm", ldm_value}});
    }
  }
}

void DCDiffModel::train_fmpp() {
  begin_training("train_fmpp");
  DCDIFF_TRACE_SPAN("train_fmpp");
  DCDIFF_LOG_INFO("core.train", "fmpp_begin", {{"steps", cfg_.fmpp_steps}});
  static obs::Counter& steps_done = obs::counter("core.train.fmpp_steps");
  const Unfrozen fmpp(fmpp_->params());
  Adam opt(fmpp.params, 1e-3f);
  Rng rng(cfg_.seed ^ 0xF4997ull);
  const int steps = std::max(2, cfg_.ddim_steps / 2);  // cheaper inner loop
  for (int step = 0; step < cfg_.fmpp_steps; ++step) {
    const Sample s = make_sample(rng.uniform_int(0, 1 << 20));
    ACFeatures acfeat;
    ControlModule::Features ctrl;
    {
      NoGradGuard no_grad;
      acfeat = ae_->encode_ac(s.tilde);
      ctrl = control_->forward(s.tilde);
    }
    const FMPP::Factors f = fmpp_->forward(s.tilde);

    // DDIM down to the final step without a tape, final step with gradients
    // flowing through the modulation factors (truncated backprop; the full
    // chain is CPU-infeasible -- see DESIGN.md).
    const std::vector<int> ts = sched_.ddim_timesteps(steps);
    Tensor z = randn_like_shape(
        {1, cfg_.unet.z_channels, cfg_.image_size / 4, cfg_.image_size / 4},
        rng);
    {
      NoGradGuard no_grad;
      // z steps in place: a no-grad forward keeps no reference to it.
      std::vector<float> z0(z.numel());
      for (int k = steps - 1; k >= 1; --k) {
        const std::vector<int> t(1, ts[static_cast<size_t>(k)]);
        const int t_prev = ts[static_cast<size_t>(k - 1)];
        Tensor pred = unet_->forward(z, t, ctrl, f.s, f.b);
        ddim_step(sched_, cfg_.prediction, 1, z.numel(), t.data(), &t_prev,
                  pred.value().data(), z.value().data(), z0.data());
      }
    }
    const std::vector<int> t0(1, ts[0]);
    const Tensor pred = unet_->forward(z, t0, ctrl, f.s, f.b);
    const Tensor z0_pred = cfg_.prediction == Prediction::kX0
                               ? pred
                               : predict_z0(z, pred, sched_, t0);
    const Tensor xhat = ae_->decode(z0_pred, acfeat);
    Tensor loss = mse_loss(xhat, s.x0);
    opt.zero_grad();
    loss.backward();
    opt.step();
    steps_done.inc();
    if (step % 10 == 0) {
      DCDIFF_LOG_DEBUG("core.train", "fmpp_step",
                       {{"step", step},
                        {"total", cfg_.fmpp_steps},
                        {"loss", loss.item()}});
    }
  }
}

void DCDiffModel::train_or_load() {
  begin_training("train_or_load");
  DCDIFF_TRACE_SPAN("train_or_load");
  const std::string ae_path = cache_path("dcdiff_" + cfg_.ae_tag + ".bin");
  {
    std::vector<Tensor> p = ae_->params();
    if (!load_params(p, ae_path)) {
      train_stage1();
      save_params(ae_->params(), ae_path);
    }
  }
  const std::string diff_path = cache_path("dcdiff_" + cfg_.tag + "_diff.bin");
  {
    std::vector<Tensor> p = unet_->params();
    auto cp = control_->params();
    p.insert(p.end(), cp.begin(), cp.end());
    if (!load_params(p, diff_path)) {
      train_stage2();
      std::vector<Tensor> all = unet_->params();
      auto cp2 = control_->params();
      all.insert(all.end(), cp2.begin(), cp2.end());
      save_params(all, diff_path);
    }
  }
  const std::string fmpp_path = cache_path("dcdiff_" + cfg_.tag + "_fmpp.bin");
  {
    std::vector<Tensor> p = fmpp_->params();
    if (!load_params(p, fmpp_path)) {
      train_fmpp();
      save_params(fmpp_->params(), fmpp_path);
    }
  }
}

AnytimeResult DCDiffModel::reconstruct_batch_anytime(
    const std::vector<AnytimeItem>& items, const ReconstructOptions& opts,
    const AnytimeControl& ctrl) const {
  DCDIFF_TRACE_SPAN("reconstruct");
  static obs::Histogram& lat = obs::histogram("core.reconstruct_seconds");
  obs::ScopedLatency timer(lat);
  static obs::Counter& images_c = obs::counter("core.reconstruct.images");
  static obs::Histogram& batch_hist =
      obs::histogram("core.reconstruct.batch_size",
                     {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  static obs::Counter& checkpoints_c =
      obs::counter("core.anytime.checkpoints");
  static obs::Counter& early_exits_c =
      obs::counter("core.anytime.early_exits");
  AnytimeResult out;
  const int total = static_cast<int>(items.size());
  if (total == 0) return out;
  images_c.inc(static_cast<uint64_t>(total));
  batch_hist.observe(static_cast<double>(total));
  out.images.resize(static_cast<size_t>(total));
  out.steps_done.assign(static_cast<size_t>(total), 0);

  const int steps = opts.ddim_steps > 0 ? opts.ddim_steps : cfg_.ddim_steps;
  // Posterior-mean estimate: average the z0 samples of a small ensemble of
  // independent noise seeds (deterministic: seeds derive from the config).
  const int ensemble =
      opts.ensemble > 0 ? opts.ensemble : std::max(1, cfg_.sample_ensemble);

  // Items grouped by padded size: every op needs one spatial shape per
  // call, and each image keeps exactly its own padded size, so its pixels
  // never depend on its batch-mates.
  std::vector<std::pair<std::pair<int, int>, std::vector<int>>> groups;
  for (int i = 0; i < total; ++i) {
    const std::pair<int, int> size =
        RunningBatch::padded_size(*items[static_cast<size_t>(i)].coeffs);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == size; });
    if (it == groups.end()) {
      groups.push_back({size, {i}});
    } else {
      it->second.push_back(i);
    }
  }

  for (const auto& [size, idx] : groups) {
    const int n = static_cast<int>(idx.size());
    RunningBatch batch(*this, n, ensemble, size.first, size.second);
    std::vector<int> ids;
    ids.reserve(idx.size());
    for (int i : idx) {
      ids.push_back(batch.admit(items[static_cast<size_t>(i)], opts));
    }
    int group_steps = steps;
    {
      DCDIFF_TRACE_SPAN("ddim_sample");
      for (int done = 1;; ++done) {
        batch.step();
        if (ctrl.on_step) {
          checkpoints_c.inc();
          const AnytimeControl::Action action = ctrl.on_step(done, steps);
          if (action == AnytimeControl::Action::kStop) {
            group_steps = done;
            // Stopping on the terminal checkpoint is just completion.
            if (done < steps) out.early_exit = true;
            break;
          }
          if (action == AnytimeControl::Action::kEmitPartial &&
              ctrl.on_partial && done < steps) {
            for (size_t j = 0; j < idx.size(); ++j) {
              double proxy = 0;
              Image image = batch.checkpoint(ids[j], &proxy);
              ctrl.on_partial(idx[j], std::move(image), done, proxy);
            }
          }
        }
        if (done == steps) break;
      }
    }
    for (size_t j = 0; j < idx.size(); ++j) {
      const size_t i = static_cast<size_t>(idx[j]);
      out.images[i] = batch.retire(ids[j]);
      out.steps_done[i] = group_steps;
    }
    if (group_steps < steps) early_exits_c.inc(static_cast<uint64_t>(n));
  }
  return out;
}

Image DCDiffModel::reconstruct(const jpeg::CoeffImage& dropped,
                               const ReconstructOptions& opts) const {
  return reconstruct_batch_anytime({AnytimeItem{&dropped}}, opts,
                                   AnytimeControl{})
      .images[0];
}

std::vector<Image> DCDiffModel::reconstruct_batch(
    const std::vector<jpeg::CoeffImage>& dropped,
    const ReconstructOptions& opts) const {
  std::vector<AnytimeItem> items;
  items.reserve(dropped.size());
  for (const jpeg::CoeffImage& d : dropped) items.push_back(AnytimeItem{&d});
  return reconstruct_batch_anytime(items, opts, AnytimeControl{}).images;
}

Image DCDiffModel::autoencode(const Image& original,
                              const jpeg::CoeffImage& dropped) const {
  NoGradGuard no_grad;
  nn::PackCacheBinding packs(packs_.get());
  const Image tilde = pad_to_multiple(jpeg::tilde_image(dropped), 8);
  const Image padded = pad_to_multiple(original, 8);
  const Tensor z = ae_->encode_dc(rgb_to_tensor(padded));
  const ACFeatures ac = ae_->encode_ac(tilde_to_tensor(tilde));
  Image rgb = tensor_to_rgb(ae_->decode(z, ac));
  if (rgb.width() != original.width() || rgb.height() != original.height()) {
    rgb = crop(rgb, 0, 0, original.width(), original.height());
  }
  return rgb;
}

SenderOutput sender_encode(const Image& rgb, int quality,
                           jpeg::EntropyKind kind) {
  DCDIFF_TRACE_SPAN("sender_encode");
  static obs::Histogram& lat = obs::histogram("core.sender_encode_seconds");
  obs::ScopedLatency timer(lat);
  const bool cm = kind == jpeg::EntropyKind::kCm;
  SenderOutput out;
  auto coeffs = jpeg::forward_transform(rgb, quality);
  out.standard_bits = cm ? jpeg::entropy_bit_count_cm(coeffs)
                         : jpeg::entropy_bit_count(coeffs);
  jpeg::drop_dc(coeffs);
  out.dropped_bits = cm ? jpeg::entropy_bit_count_cm(coeffs)
                        : jpeg::entropy_bit_count(coeffs);
  out.bytes = jpeg::encode_jfif(coeffs, kind);
  static obs::Counter& images = obs::counter("core.sender.images");
  static obs::Counter& bits_saved = obs::counter("core.sender.bits_saved");
  images.inc();
  if (out.standard_bits > out.dropped_bits) {
    bits_saved.inc(out.standard_bits - out.dropped_bits);
  }
  DCDIFF_LOG_DEBUG("core.sender", "encoded",
                   {{"standard_bits", out.standard_bits},
                    {"dropped_bits", out.dropped_bits},
                    {"bytes", out.bytes.size()}});
  return out;
}

Image receiver_reconstruct(const std::vector<uint8_t>& bytes,
                           const DCDiffModel& model,
                           const ReconstructOptions& opts) {
  DCDIFF_TRACE_SPAN("receiver_reconstruct");
  static obs::Histogram& lat =
      obs::histogram("core.receiver_reconstruct_seconds");
  obs::ScopedLatency timer(lat);
  return model.reconstruct(jpeg::decode_jfif(bytes), opts);
}

Status try_receiver_reconstruct(const std::vector<uint8_t>& bytes,
                                const DCDiffModel& model, Image* out,
                                const ReconstructOptions& opts) noexcept {
  if (out == nullptr) {
    return Status::invalid_argument("try_receiver_reconstruct: null output");
  }
  jpeg::CoeffImage coeffs;
  const Status decoded = jpeg::try_decode_jfif(bytes, &coeffs);
  if (!decoded.is_ok()) return decoded;
  try {
    *out = model.reconstruct(coeffs, opts);
  } catch (const std::exception& e) {
    static obs::Counter& failures =
        obs::counter("core.reconstruct.internal_errors");
    failures.inc();
    return Status::internal(e.what());
  }
  return Status::ok();
}

// ----- model pool -----

namespace {

struct PoolState {
  std::mutex mu;
  // shared_future: the first requester trains/loads outside the map lock;
  // concurrent requesters for the same tag block on the future, not the
  // mutex, and requests for other tags proceed independently.
  std::map<std::string, std::shared_future<std::shared_ptr<const DCDiffModel>>>
      models;
};

PoolState& pool_state() {
  // Leaked: models stay valid for exit handlers and detached worker threads
  // regardless of static teardown order (same policy as obs::Registry).
  static PoolState* state = new PoolState();
  return *state;
}

}  // namespace

ModelPool& ModelPool::instance() {
  static ModelPool* pool = new ModelPool();
  return *pool;
}

std::shared_ptr<const DCDiffModel> ModelPool::get(const DCDiffConfig& cfg) {
  PoolState& state = pool_state();
  std::promise<std::shared_ptr<const DCDiffModel>> promise;
  std::shared_future<std::shared_ptr<const DCDiffModel>> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    auto it = state.models.find(cfg.tag);
    if (it != state.models.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      state.models.emplace(cfg.tag, future);
      owner = true;
    }
  }
  if (owner) {
    DCDIFF_LOG_INFO("core.pool", "model_load", {{"tag", cfg.tag}});
    try {
      auto model = std::make_shared<DCDiffModel>(cfg);
      model->train_or_load();
      promise.set_value(std::move(model));
    } catch (...) {
      // Propagate to every waiter, then drop the poisoned entry so a later
      // call can retry (e.g. after fixing a cache-dir permission problem).
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(state.mu);
      state.models.erase(cfg.tag);
    }
  }
  return future.get();
}

std::shared_ptr<const DCDiffModel> ModelPool::default_instance() {
  return get(DCDiffConfig{});
}

size_t ModelPool::size() const {
  PoolState& state = pool_state();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.models.size();
}

std::shared_ptr<const DCDiffModel> make_variant_model(bool use_mld,
                                                      float mask_threshold) {
  DCDiffConfig cfg;
  cfg.use_mld = use_mld;
  cfg.mask_threshold = mask_threshold;
  // Variants reuse the default stage-1 AE and retrain stage 2 only (shorter
  // schedule: ablation trends, not headline numbers).
  cfg.stage2_steps = 150;
  cfg.fmpp_steps = 8;
  if (!use_mld) {
    cfg.tag = "womld";
  } else {
    cfg.tag = "T" + std::to_string(static_cast<int>(mask_threshold));
  }
  return ModelPool::instance().get(cfg);
}

}  // namespace dcdiff::core

// DCDiff end-to-end pipeline: the library's primary public API.
//
// Sender (any fixed-function JPEG encoder):
//   coeffs = jpeg::forward_transform(image, Q);  jpeg::drop_dc(coeffs);
//   bytes  = jpeg::encode_jfif(coeffs);                 // ~25% fewer bits
// Receiver (this model):
//   image  = model.reconstruct(jpeg::decode_jfif(bytes));
//
// The model holds the stage-1 autoencoder (E^DC, E^AC, D), the stage-2
// latent-diffusion UNet + control module, and the FMPP sampler-modulation
// predictor. Training is CPU-scale (see DESIGN.md substitution table):
// every component trains once and is cached on disk; `train_or_load`
// returns instantly on later runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/autoencoder.h"
#include "core/diffusion.h"
#include "core/fmpp.h"
#include "image/image.h"
#include "jpeg/codec.h"
#include "nn/plan/fwd.h"
#include "support/status.h"

namespace dcdiff::nn {
class PackCache;  // packcache.h; held by pointer only
}

namespace dcdiff::core {

// Executor switch. Every reconstruction runs its UNet steps and decoder on
// compiled plans (see core/running_batch.h and nn/plan/) unless
// set_plan_enabled(false) asks for the eager modules, the reference that
// tests and benchmarks compare the plans against. Process-wide, thread-safe.
bool plan_enabled();
void set_plan_enabled(bool enabled);

struct DCDiffConfig {
  // Data / JPEG settings.
  int image_size = 64;      // training crop size
  int quality = 50;         // Q-table used during training
  // Model.
  AutoencoderConfig ae;
  UNetConfig unet;
  int diffusion_T = 100;
  int ddim_steps = 12;
  // Number of independent noise seeds averaged at sampling time (posterior
  // mean estimate; 1 = single draw).
  int sample_ensemble = 2;
  // x0-parameterization by default: far more sample-efficient for this
  // strongly-conditioned latent at CPU-scale training (see DESIGN.md).
  Prediction prediction = Prediction::kX0;
  // Masked Laplacian distribution loss (Eq. 3/4).
  bool use_mld = true;
  float mask_threshold = 10.0f;   // T of Eq. 3, in pixel units of x-tilde
  float mld_weight = 0.1f;        // sigma (rescaled: our loss is a mean)
  float corner_weight = 0.3f;     // corner-block content-consistency term
  // DC-fidelity term: MSE between 8x8 block means of reconstruction and
  // original. The paper's entire objective is accurate DC estimation; this
  // makes that target explicit in both training stages.
  float dc_weight = 3.0f;
  // Training schedule (kept small: single-core CPU substrate).
  int stage1_steps = 800;
  int stage2_steps = 900;
  int fmpp_steps = 30;
  int batch = 2;
  uint64_t seed = 1234;
  bool verbose = false;  // print running losses to stderr during training
  // Cache identities. Ablation variants share the stage-1 AE.
  std::string ae_tag = "ae_default";
  std::string tag = "default";
};

// Per-call inference options. Zero-valued fields defer to the model's
// DCDiffConfig, so a default-constructed ReconstructOptions reproduces the
// configured behaviour exactly.
struct ReconstructOptions {
  bool use_fmpp = true;  // false: the "w/o FMPP" ablation (s = b = 1)
  int ddim_steps = 0;    // <= 0: config ddim_steps
  int ensemble = 0;      // <= 0: config sample_ensemble (noise-seed averaging)
  uint64_t seed = 0;     // 0: config seed (sampling stays deterministic)
  // Coordinate-seeded noise: each latent noise sample derives from
  // (seed, ensemble member, channel, absolute y, absolute x) instead of the
  // sequential Rng stream, so a crop's noise field equals the same crop of
  // the full field. This is what makes tiled reconstruction comparable to
  // an untiled run (see serve/tiler.h); it changes sampling output, so it is
  // off by default (the sequential stream stays the bit-compat path).
  bool coord_noise = false;
  // When false, skip corner anchoring and the known-AC projection and
  // return the raw decoded estimate. Tiling uses this: anchoring and
  // projection are global transforms, applied once after stitching.
  bool postprocess = true;
};

// One image of an anytime (checkpointed / tiled) batch. `noise_x0/noise_y0`
// give the item's absolute origin in latent units (pixel offset / 4) for
// coordinate-seeded noise; both 0 for standalone images.
struct AnytimeItem {
  const jpeg::CoeffImage* coeffs = nullptr;
  int noise_x0 = 0;
  int noise_y0 = 0;
};

// Caller-side control of an anytime reconstruction. After every completed
// DDIM step the sampler consults `on_step`; the returned action either
// continues, decodes the current checkpoint into partial images (delivered
// through `on_partial`, then sampling continues), or stops sampling early —
// the final decode then happens on the best checkpoint so the caller still
// receives valid (coarser) images. The hook runs between the steps of the
// one DDIM loop, planned or eager alike, and perturbs no arithmetic: an
// absent on_step, or one that never stops, gives exactly reconstruct_batch.
struct AnytimeControl {
  enum class Action { kContinue, kEmitPartial, kStop };
  std::function<Action(int steps_done, int total_steps)> on_step;
  // item: index into the AnytimeItem batch. psnr_proxy is a convergence
  // proxy: PSNR-style distance between this checkpoint's latent and the
  // item's previously emitted checkpoint (0 for the first emission, capped
  // at 99 once converged).
  std::function<void(int item, Image image, int steps_done,
                     double psnr_proxy)>
      on_partial;
};

class RunningBatch;  // core/running_batch.h

struct AnytimeResult {
  std::vector<Image> images;
  // DDIM steps actually executed per item (< requested when stopped early;
  // items are grouped by padded size internally, so counts can differ
  // across size groups).
  std::vector<int> steps_done;
  bool early_exit = false;  // any group stopped before its full step count
};

class DCDiffModel {
 public:
  explicit DCDiffModel(const DCDiffConfig& cfg);
  ~DCDiffModel();

  const DCDiffConfig& config() const { return cfg_; }

  // --- replicas ---
  // An inference replica of a trained model: an independent DCDiffModel
  // handle whose components — and therefore every weight tensor and the
  // PackedA weight-panel cache — are shared read-only with `src`, with an
  // empty plan cache of its own. Construction is O(1): nothing is copied,
  // re-loaded, or re-packed. Serving does not need replicas (every worker
  // runs the one model: plans are immutable and run in the calling
  // thread's arena); a replica is the trained model with a cold plan
  // cache, e.g. for timing plan compilation.
  // `src` must already be trained (train_or_load done); calling any train_*
  // method on a replica is invalid and throws.
  static std::shared_ptr<const DCDiffModel> replicate(
      const std::shared_ptr<const DCDiffModel>& src);
  bool is_replica() const { return replica_; }

  // --- training ---
  // A model is frozen from construction on: no parameter requires grad, so
  // conv weights resolve to the shared PackCache panels, eager and planned
  // alike. Each train_* call unfreezes only the parameters it steps, drops
  // the panels and plans built from the old weights, and freezes again on
  // return. Replicas share the source's panels, so train before
  // replicating.
  void train_stage1();           // E^DC, E^AC, D (+ discriminator)
  void train_stage2();           // UNet + control module (L_ldm [+ MLD])
  void train_fmpp();             // FMPP (truncated backprop through DDIM)
  // Loads each component from cache or trains and caches it.
  void train_or_load();
  // Every parameter of every component (frozen outside train_* calls).
  std::vector<nn::Tensor> params() const;

  // --- inference (receiver side) ---
  // Reconstructs from a DC-dropped coefficient image. Fields of
  // ReconstructOptions left at their zero defaults fall back to the model
  // config (see the struct).
  Image reconstruct(const jpeg::CoeffImage& dropped,
                    const ReconstructOptions& opts = ReconstructOptions{}) const;

  // Cross-request microbatched reconstruction: all images of one padded
  // size share every DDIM step's UNet call (ensemble members fold into the
  // same batch axis; per-image FMPP (s,b) applied per batch row); each is
  // conditioned and decoded on its own. Images whose padded sizes differ are
  // grouped internally, so inputs of mixed dimensions are fine — same-size
  // requests get the batching win.
  // Each image's output is bit-identical to reconstruct() of that image
  // alone, whatever its batch-mates: the same noise rows, and kernels whose
  // per-row arithmetic does not depend on the row count (tests/test_plan.cpp,
  // tests/test_serve.cpp).
  std::vector<Image> reconstruct_batch(
      const std::vector<jpeg::CoeffImage>& dropped,
      const ReconstructOptions& opts = ReconstructOptions{}) const;

  // Anytime reconstruction: per-item noise origins for tiled sampling and a
  // per-step checkpoint hook (see AnytimeControl). This is the one
  // reconstruction path; reconstruct and reconstruct_batch forward to it.
  // It groups the items by padded size and runs each group as one
  // RunningBatch (core/running_batch.h): every item admitted, then the
  // DDIM loop — one step of the batch, then the hook — and every item
  // retired (decoded, cropped and postprocessed). Without a hook it equals
  // reconstruct_batch for the same options.
  AnytimeResult reconstruct_batch_anytime(const std::vector<AnytimeItem>& items,
                                          const ReconstructOptions& opts,
                                          const AnytimeControl& ctrl) const;

  // Stage-1-only reconstruction (oracle z0 from the original image); used by
  // tests to bound achievable quality.
  Image autoencode(const Image& original,
                   const jpeg::CoeffImage& dropped) const;

  // Access for tests/benches.
  const Autoencoder& autoencoder() const { return *ae_; }
  const UNet& unet() const { return *unet_; }
  const DiffusionSchedule& schedule() const { return sched_; }

 private:
  friend class RunningBatch;  // runs the components and plans below
  struct Sample;  // training sample (x0, tilde, mask)
  struct ReplicaTag {};
  DCDiffModel(const DCDiffModel& src, ReplicaTag);
  Sample make_sample(int index) const;
  // Throws for replicas; drops the panels and plans of the old weights.
  void begin_training(const char* what);

  DCDiffConfig cfg_;
  DiffusionSchedule sched_;
  bool replica_ = false;
  // Components are shared_ptr so replicas alias them (read-only after
  // train_or_load); the owning model and all replicas see one copy of every
  // weight tensor.
  std::shared_ptr<Autoencoder> ae_;
  std::shared_ptr<PatchDiscriminator> disc_;
  std::shared_ptr<ControlModule> control_;
  std::shared_ptr<UNet> unet_;
  std::shared_ptr<FMPP> fmpp_;
  // PackedA weight panels, shared by replicas and borrowed by every plan;
  // bound thread-locally for the duration of each inference call (see
  // nn/packcache.h). Replaced when training starts.
  std::shared_ptr<nn::PackCache> packs_;
  // Compiled UNet-step and decoder plans (core/running_batch.h), shared by
  // every thread that runs this model. Fresh per replica (the weights and
  // PackedA panels they reference stay shared through ae_/unet_/.../packs_).
  std::shared_ptr<nn::plan::PlanCache> plans_;
};

// ----- sender/receiver convenience API -----

struct SenderOutput {
  std::vector<uint8_t> bytes;   // DC-dropped JFIF file
  size_t standard_bits = 0;     // entropy bits of standard JPEG
  size_t dropped_bits = 0;      // entropy bits after DC drop
};

// Encodes with the given quality and drops DC (4 corner anchors kept).
// `kind` selects the scan entropy coder (Annex-K Huffman, or the
// context-mixing range coder — see jpeg/codec.h); receivers auto-detect it,
// and the reported bit counts use the selected coder.
SenderOutput sender_encode(const Image& rgb, int quality = 50,
                           jpeg::EntropyKind kind = jpeg::EntropyKind::kHuffman);

// Decodes the bitstream and runs DCDiff reconstruction.
Image receiver_reconstruct(const std::vector<uint8_t>& bytes,
                           const DCDiffModel& model,
                           const ReconstructOptions& opts = ReconstructOptions{});

// Non-throwing receiver_reconstruct, for callers that must not let an
// exception cross their boundary. (The serving engine does not call it: it
// decodes with jpeg::try_decode_jfif at submit and runs RunningBatch.) A
// malformed bitstream is the decoder's kDataLoss Status, whose message names
// the segment that broke; a null `out` is kInvalidArgument; any other
// failure is kInternal. On success *out equals receiver_reconstruct's
// image.
Status try_receiver_reconstruct(
    const std::vector<uint8_t>& bytes, const DCDiffModel& model, Image* out,
    const ReconstructOptions& opts = ReconstructOptions{}) noexcept;

// ----- model pool -----

// Process-wide registry of trained models, keyed by config tag. Thread-safe:
// concurrent get() calls for the same tag train/load once (other callers
// block until the weights are ready); calls for different tags proceed
// independently. Entries live for the process lifetime, so repeated lookups
// (ablation benches cycling through variants, servers resolving their model)
// never re-load weights.
class ModelPool {
 public:
  static ModelPool& instance();

  // The trained (train_or_load) model for this config. The key is
  // `cfg.tag`: configs must follow the repo convention that distinct model
  // configurations carry distinct tags (the on-disk weight cache is keyed
  // the same way).
  std::shared_ptr<const DCDiffModel> get(const DCDiffConfig& cfg);

  // The default-config model (the former shared_model() global).
  std::shared_ptr<const DCDiffModel> default_instance();

  // Number of resident models (tests / introspection).
  size_t size() const;

 private:
  ModelPool() = default;
};

// Variant helper used by the ablation bench: the pool's model for a stage-2
// trained with the given MLD setting/threshold. Repeated calls for the same
// variant return the same pooled instance (no weight re-load).
std::shared_ptr<const DCDiffModel> make_variant_model(bool use_mld,
                                                      float mask_threshold);

}  // namespace dcdiff::core

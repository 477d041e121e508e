// A running DDIM batch: requests join it between steps and leave it when
// their own chain ends, stops or fails — iteration-level scheduling (Orca,
// Yu et al., OSDI 2022) applied to DDIM steps.
//
// A batch holds requests of one padded size, since every op of a step needs
// one spatial shape. Each request brings `ensemble` latent rows, kept
// contiguous. The per-row buffers (latents, z0 checkpoints, predictions,
// control features, FreeU factors, timesteps) grow to the most requests
// the batch has held, at most max_requests, and never shrink: a step writes
// into them whatever the row count, and never into fresh tensors. Between
// steps a request keeps nothing image-sized of its own (its x-tilde and AC
// features are computed again when it is decoded), so requests joining and
// leaving at different times neither fragment the heap nor hold memory the
// rows do not need.
//
// * admit: the request's step conditioner (control module on its one
//   padded x-tilde, FMPP factors or ones) and its noise rows (the
//   sequential stream of its seed, or the coordinate-seeded field at its
//   origin).
// * step: one UNet-step call over every running row — the compiled step
//   plan for that row count, or the eager UNet under
//   set_plan_enabled(false) or when a plan cannot be opened — each row at
//   its request's own timestep, then ddim_step (core/diffusion.h) over the
//   rows.
// * retire: the mean of the request's z0 rows, decoded on the one-image
//   decoder plan with its AC features, then cropped and postprocessed per
//   its options.
//   checkpoint() is the same decode without leaving: a progressive partial.
//
// Plans (nn/plan/): the batch fetches both from the model's PlanCache,
// compiling each once per shape. The UNet-step plan (key
// unet_r<rows>_<h>x<w>, latent h x w) takes what UNet::forward takes: each
// row's timestep, as its sinusoidal embedding, and its FreeU factors (ones
// when FMPP is off), so no key holds the step count, the ensemble size or
// the prediction kind; it is reopened when the request count changes. The
// decoder plan (key decoder_<h>x<w>) decodes one image. Both run in the
// calling thread's arena, reserved once for the larger of the two. When a
// plan cannot be built (a conv weight that still trains) or the arena
// cannot grow, that request count steps and decodes eager
// (plan.eager_fallbacks). The conditioner has no plan: it runs once per
// request, at admission, and is the cheapest stage (DESIGN.md §13).
//
// DCDiffModel::reconstruct_batch_anytime is a loop over one batch per size
// group; a serving worker keeps one batch per padded size and admits and
// retires requests between steps. Every kernel is row-invariant, so a
// request's pixels equal reconstruct() of its image alone byte for byte,
// wherever its rows sit and whichever requests joined or left around it,
// planned or eager.
//
// Not thread-safe: one thread drives a batch, and its plans run in that
// thread's arena.
#pragma once

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "core/pipeline.h"

namespace dcdiff::core {

class RunningBatch {
 public:
  // An empty batch for up to `max_requests` requests of `ensemble` rows
  // each, at padded pixel size height x width (see padded_size). It
  // allocates nothing until a request joins. The model must outlive it.
  RunningBatch(const DCDiffModel& model, int max_requests, int ensemble,
               int height, int width);
  ~RunningBatch();
  RunningBatch(const RunningBatch&) = delete;
  RunningBatch& operator=(const RunningBatch&) = delete;

  // The (height, width) an image samples at: its size rounded up to
  // multiples of 8 (latent /4, one UNet downsample). A request joins only a
  // batch of its padded size.
  static std::pair<int, int> padded_size(const jpeg::CoeffImage& coeffs);

  // Admits one request with its own options: step count, seed, FMPP,
  // coordinate noise and postprocess (its ensemble must be the batch's).
  // `item.coeffs` must stay valid until the request leaves. Returns the
  // request's handle. Throws std::invalid_argument when the batch is full
  // or the size or ensemble differs; a throw leaves the batch unchanged.
  int admit(const AnytimeItem& item, const ReconstructOptions& opts);

  // One DDIM step of every running request. Each must have a step left:
  // retire a request once steps_done(id) reaches its step count. A throw
  // leaves the rows undefined; the caller drops every request.
  void step();

  int height() const { return height_; }
  int width() const { return width_; }
  int size() const { return static_cast<int>(reqs_.size()); }
  // Steps the request has run.
  int steps_done(int id) const;

  // The request's latest checkpoint, decoded and postprocessed like its
  // final image: a progressive partial. *psnr_proxy is the PSNR-style
  // distance of this checkpoint's latent to the request's previous
  // checkpoint (0 for the first, capped at 99 once converged).
  Image checkpoint(int id, double* psnr_proxy);
  // Removes the request and returns its latest checkpoint decoded and
  // postprocessed. The request has left even when decoding throws.
  Image retire(int id);
  // Removes the request without decoding (a failed request).
  void drop(int id);

 private:
  // One admitted request; its rows are [index * ensemble, + ensemble).
  struct Request {
    int id = 0;
    const jpeg::CoeffImage* coeffs = nullptr;
    bool postprocess = true;
    std::vector<int> ts;     // the chain's timesteps, ascending
    int done = 0;            // steps run
    std::vector<float> emitted;  // last checkpoint fold (psnr proxy)
  };

  size_t index_of(int id) const;
  // The ensemble mean of request i's z0 rows.
  std::vector<float> fold(size_t i) const;
  // Request i's image from the latent z0: decoded, cropped, postprocessed.
  Image decode(size_t i, std::vector<float> z0);
  // Moves the last request's rows into request i's.
  void remove(size_t i);
  // Each per-row buffer with its floats per row.
  std::array<std::pair<std::vector<float>*, size_t>, 7> buffers();
  // Opens the step plan for n requests and the decoder plan when the count
  // changes. False when plans are off or cannot be opened
  // (plan.eager_fallbacks): n requests then run eager.
  bool open_plans(int n);

  const DCDiffModel& model_;
  int capacity_, ensemble_, height_, width_;
  size_t z_per_, c1_per_, c2_per_;  // floats per row
  std::vector<float> z_, z0_, pred_, c1_, c2_, s_, b_;
  std::vector<int> t_, t_prev_;
  std::vector<Request> reqs_;  // in row order
  int next_id_ = 0;
  // Null unless open for plans_for_ requests (0: none).
  std::shared_ptr<const nn::plan::Plan> step_plan_, decoder_plan_;
  int plans_for_ = 0;
};

}  // namespace dcdiff::core

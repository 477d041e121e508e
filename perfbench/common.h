// Shared pieces of the receiver benchmark: run options, the report every
// workload fills, the in-memory span log of the traced run, seeded inputs,
// the paper-default model and server settings, and small statistics helpers.
//
// Everything here talks to the program through its public headers only.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "image/image.h"
#include "jpeg/codec.h"
#include "serve/server.h"

namespace perfbench {

using namespace dcdiff;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // span logs and other run artifacts
};

// What one invocation measured. `metrics` holds the values by metric name;
// units and directions live in perfbench/metric_map.json.
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;  // settings and diagnostics
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what);  // one wrong or missing output
  void set(const std::string& name, double v) { metrics[name] = v; }
  bool correct() const { return failed == 0 && errors.empty(); }
  std::string to_json() const;
};

// ---- time and statistics ----

double now_s();  // steady clock, seconds
double median(std::vector<double> v);
// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);
double peak_rss_mb();

// ---- spans of the traced run ----
//
// One span per call into a layer's public function: name, start, end, the
// span that caused it, and the request it belongs to (0 = none). Spans are
// kept in memory and written as JSON when the run ends. Recording is off
// unless enabled, so the untraced phase pays one branch per span.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;  // index into spans, -1 = root
    uint64_t request;
  };

  static SpanLog& instance();
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int64_t begin(const char* name, uint64_t request);
  void end(int64_t index);
  // Records a span measured elsewhere (e.g. by the generator thread).
  void add(const char* name, double start_s, double end_s, uint64_t request);
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
  int64_t prev_parent_;
};

// ---- model, server, inputs ----

// The paper-default configuration (UNet base 32, AE base 16, 12 DDIM steps,
// ensemble 2) with its seeded random init. Never trained, never pooled:
// inference cost does not depend on weight values.
core::DCDiffConfig paper_config();
std::shared_ptr<const core::DCDiffModel> make_model();

constexpr int kWorkers = 2;
constexpr int kPoolThreads = 4;  // two threads per worker partition
constexpr int kMaxBatch = 4;
constexpr int kServeSize = 64;   // untiled request images, pixels per side
constexpr int kDistinct = 16;    // distinct untiled request images per seed

serve::ServerConfig server_config(int governor_depth_per_step);

// Seeded source images. The same (dataset, seed, i, size) gives the same
// image; different seeds give disjoint images.
Image source_image(data::DatasetId id, uint64_t seed, int i, int size);
// A size x size image tiled from (size / kMosaicTile)^2 independent
// 128 px images that cycle through the Kodak (smooth), Urban100
// (rectilinear, high contrast) and Inria (aerial) generators. Every mosaic
// mixes the three in nearly equal parts, so coder cost varies little from
// image to image and from seed to seed.
constexpr int kMosaicTile = 128;
Image source_mosaic(uint64_t seed, int i, int size);
// DC-dropped coefficients of an image at the sender's quality (50).
jpeg::CoeffImage dc_dropped(const Image& img);

// ---- output checks ----

double max_abs_diff(const Image& a, const Image& b);  // inf on shape mismatch
bool all_finite(const Image& img);

// Bits per pixel of the whole baseline file of a set of coefficient images,
// with Huffman (bpp_huffman) and with cm (bpp_cm); each decode is checked
// against the encoder's input.
void sender_bpp(const std::vector<jpeg::CoeffImage>& images, Report& report);
bool same_coefficients(const jpeg::CoeffImage& a, const jpeg::CoeffImage& b);

// ---- workloads and layer probes ----

// A serve workload: a closed loop keeping `in_flight` final-only quality
// requests in flight (serve_workloads.cpp).
void run_serve(const Options& opt, int in_flight, Report& report);

// Per-layer probes shared by every traced run (layers.cpp).
void probe_gemm_ledger(Report& report);
void probe_core(const std::shared_ptr<const core::DCDiffModel>& model,
                uint64_t seed, Report& report);
void probe_codec_layers(uint64_t seed, Report& report);
// A 4 s closed loop of mixed traffic (deadline, progressive, quality and
// tiled requests; see serve_workloads.cpp) for the per-layer outcomes a
// workload does not produce itself; `all` also takes the queue, batch and
// client metrics.
void probe_serve(const std::shared_ptr<const core::DCDiffModel>& model,
                 uint64_t seed, bool all, Report& report);
// Planned reconstructions only; run with DCDIFF_PLAN_PROFILE=1 so the
// program prints its per-op-kind table (parsed by run.py).
int run_plan_profile(uint64_t seed);

}  // namespace perfbench

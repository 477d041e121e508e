#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "jpeg/dcdrop.h"
#include "obs/json.h"

namespace perfbench {

void Report::fail(const std::string& what) {
  ++failed;
  // Keep the first few; the count carries the rest.
  if (errors.size() < 20) errors.push_back(what);
}

std::string Report::to_json() const {
  std::string s = "{\"correct\":";
  s += correct() ? "true" : "false";
  s += ",\"attempted\":" + std::to_string(attempted);
  s += ",\"failed\":" + std::to_string(failed);
  s += ",\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, v] : metrics) {
    if (!first) s += ',';
    first = false;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : -1.0);
    s += "\"" + obs::json_escape(name) + "\":" + buf;
  }
  s += "},\"info\":{";
  first = true;
  for (const auto& [k, v] : info) {
    if (!first) s += ',';
    first = false;
    s += "\"" + obs::json_escape(k) + "\":\"" + obs::json_escape(v) + "\"";
  }
  s += "},\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i) s += ',';
    s += "\"" + obs::json_escape(errors[i]) + "\"";
  }
  s += "]}";
  return s;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- spans ----

namespace {
thread_local int64_t t_parent = -1;
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

int64_t SpanLog::begin(const char* name, uint64_t request) {
  const double t = now_s() * 1e6;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, t, t, t_parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::end(int64_t index) {
  const double t = now_s() * 1e6;
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<size_t>(index)].end_us = t;
}

void SpanLog::add(const char* name, double start_s, double end_s,
                  uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, start_s * 1e6, end_s * 1e6, t_parent, request});
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fprintf(f, "{\"spans\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.1f,"
                 "\"end_us\":%.1f,\"parent\":%lld,\"request\":%llu}%s\n",
                 i, s.name, s.start_us, s.end_us,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request)
    : index_(-1), prev_parent_(t_parent) {
  SpanLog& log = SpanLog::instance();
  if (!log.enabled()) return;
  index_ = log.begin(name, request);
  t_parent = index_;
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  SpanLog::instance().end(index_);
  t_parent = prev_parent_;
}

// ---- model, server, inputs ----

core::DCDiffConfig paper_config() {
  core::DCDiffConfig cfg;  // defaults are the paper configuration
  cfg.tag = "perfbench_random_init";
  cfg.ae_tag = "perfbench_random_init_ae";
  return cfg;
}

std::shared_ptr<const core::DCDiffModel> make_model() {
  return std::make_shared<core::DCDiffModel>(paper_config());
}

serve::ServerConfig server_config(int governor_depth_per_step) {
  serve::ServerConfig cfg;
  cfg.workers = kWorkers;
  cfg.pool_threads = kPoolThreads;
  cfg.max_batch = kMaxBatch;
  cfg.batch_timeout_ms = 2;
  cfg.queue_capacity = 256;
  cfg.min_steps = 1;
  cfg.governor_depth_per_step = governor_depth_per_step;
  cfg.flight_recorder_size = 8192;
  return cfg;
}

Image source_image(data::DatasetId id, uint64_t seed, int i, int size) {
  // Dataset indices are disjoint per seed (1000 images per seed).
  const int index = static_cast<int>((seed % 100000) * 1000 + i);
  return data::dataset_image(id, index, size);
}

Image source_mosaic(uint64_t seed, int i, int size) {
  const data::DatasetId ids[] = {data::DatasetId::kKodak,
                                 data::DatasetId::kUrban100,
                                 data::DatasetId::kInria};
  const int per_side = size / kMosaicTile;
  Image out(size, size, ColorSpace::kRGB);
  for (int ty = 0; ty < per_side; ++ty) {
    for (int tx = 0; tx < per_side; ++tx) {
      const int k = i * per_side * per_side + ty * per_side + tx;
      const Image tile = source_image(ids[k % 3], seed, 100 + k, kMosaicTile);
      for (int c = 0; c < 3; ++c) {
        for (int y = 0; y < kMosaicTile; ++y) {
          for (int x = 0; x < kMosaicTile; ++x) {
            out.at(c, ty * kMosaicTile + y, tx * kMosaicTile + x) =
                tile.at(c, y, x);
          }
        }
      }
    }
  }
  return out;
}

jpeg::CoeffImage dc_dropped(const Image& img) {
  jpeg::CoeffImage ci = jpeg::forward_transform(img, 50);
  jpeg::drop_dc(ci);
  return ci;
}

// ---- output checks ----

double max_abs_diff(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.channels() != b.channels()) {
    return std::numeric_limits<double>::infinity();
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

bool all_finite(const Image& img) {
  for (int c = 0; c < img.channels(); ++c) {
    for (float v : img.plane(c)) {
      if (!std::isfinite(v)) return false;
    }
  }
  return !img.empty();
}

bool same_coefficients(const jpeg::CoeffImage& a, const jpeg::CoeffImage& b) {
  if (a.width != b.width || a.height != b.height ||
      a.comps.size() != b.comps.size()) {
    return false;
  }
  for (size_t c = 0; c < a.comps.size(); ++c) {
    if (a.comps[c].blocks != b.comps[c].blocks) return false;
  }
  return true;
}

void sender_bpp(const std::vector<jpeg::CoeffImage>& images, Report& report) {
  double pixels = 0, bits_huffman = 0, bits_cm = 0;
  for (const auto& ci : images) {
    pixels += static_cast<double>(ci.width) * ci.height;
    for (const auto kind : {jpeg::EntropyKind::kHuffman, jpeg::EntropyKind::kCm}) {
      const std::vector<uint8_t> bytes = jpeg::encode_jfif(ci, kind);
      jpeg::CoeffImage back;
      if (!jpeg::try_decode_jfif(bytes, &back).is_ok() ||
          !same_coefficients(back, ci)) {
        report.fail("sender stream: decode differs from the encoder input");
      }
      (kind == jpeg::EntropyKind::kCm ? bits_cm : bits_huffman) +=
          8.0 * static_cast<double>(bytes.size());
    }
  }
  report.set("bpp_huffman", bits_huffman / pixels);
  report.set("bpp_cm", bits_cm / pixels);
}

}  // namespace perfbench

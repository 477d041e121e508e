// serve_tool: drive the batched receiver serving engine end to end.
//
// Encodes N Kodak-style images with the DC-dropping sender, then plays them
// against a ReceiverServer from M concurrent client sessions. Prints
// throughput, latency percentiles, and the server's own accounting — the
// numbers an operator would watch in production.
//
// Usage: serve_tool [num_images] [num_clients] [--stats-dump <path>]
//
// --stats-dump writes the server's introspection snapshot after the run:
// <path> gets the JSON document (metrics registry + per-worker server
// state + rolling SLO windows), <path>.prom the Prometheus exposition.
//
// Knobs (environment):
//   DCDIFF_QUICKSTART_FAST=1      tiny model (seconds to train; used by the
//                                 `serve_smoke` CTest)
//   DCDIFF_SERVE_MAX_BATCH        requests running per worker (default 4)
//   DCDIFF_SERVE_QUEUE_CAP        queue bound; beyond it submits are rejected
//   DCDIFF_SERVE_WORKERS          batching worker threads
//   DCDIFF_SERVE_MIN_STEPS        degraded-service quality floor (default 1;
//                                 values < 1 clamp to 1)
//   DCDIFF_STATS_INTERVAL_MS      periodic in-process snapshot refresh
//   DCDIFF_STATS_FILE             periodic snapshot destination
//   DCDIFF_FLIGHT_RECORDER_FILE   auto-dump path for the flight recorder
//   DCDIFF_SERVE_DEADLINE_MS      per-request deadline on every submission;
//                                 expired requests come back as valid
//                                 coarser images (outcome kDegraded), not
//                                 failures
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "image/image.h"
#include "metrics/metrics.h"
#include "obs/env.h"
#include "obs/metrics.h"
#include "serve/server.h"

using namespace dcdiff;

namespace {

core::DCDiffConfig fast_config() {
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
  cfg.ae_tag = "quickfast_ae";
  cfg.tag = "quickfast";
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stats_dump;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stats-dump") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--stats-dump requires a path\n");
        return 2;
      }
      stats_dump = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int num_images = positional.size() > 0 ? std::atoi(positional[0]) : 8;
  const int num_clients = positional.size() > 1 ? std::atoi(positional[1]) : 2;
  if (num_images <= 0 || num_clients <= 0 || positional.size() > 2) {
    std::fprintf(stderr,
                 "usage: %s [num_images>0] [num_clients>0] "
                 "[--stats-dump <path>]\n",
                 argv[0]);
    return 2;
  }

  const bool fast = obs::env_int("DCDIFF_QUICKSTART_FAST", 0) > 0;
  std::printf("serve_tool: %d images, %d client sessions, %s model\n",
              num_images, num_clients, fast ? "quickstart-fast" : "full");

  auto model = fast ? core::ModelPool::instance().get(fast_config())
                    : core::ModelPool::instance().default_instance();

  // Sender side: DC-dropped bitstreams for a spread of dataset images.
  const int size = 2 * model->config().image_size;
  std::vector<std::vector<uint8_t>> bitstreams;
  std::vector<Image> originals;
  for (int i = 0; i < num_images; ++i) {
    originals.push_back(data::dataset_image(data::DatasetId::kKodak, i, size));
    bitstreams.push_back(core::sender_encode(originals.back()).bytes);
  }

  serve::ReceiverServer server(serve::ServerConfig::from_env(), model);
  const auto& cfg = server.config();
  // batch_timeout_ms is accepted and ignored: requests join a worker's
  // running batch at step boundaries, with no window to fill it.
  std::printf("server: max_batch=%d batch_timeout_ms=%d (ignored) "
              "queue_capacity=%d workers=%d min_steps=%d\n",
              cfg.max_batch, cfg.batch_timeout_ms, cfg.queue_capacity,
              cfg.workers, cfg.min_steps);

  // Each client session submits its share of the stream concurrently;
  // per-request accounting is by task outcome (complete / degraded /
  // rejected), with transport errors only on the rejected leg.
  const int deadline_ms = obs::env_int("DCDIFF_SERVE_DEADLINE_MS", 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  std::vector<int> complete_counts(static_cast<size_t>(num_clients), 0);
  std::vector<int> degraded_counts(static_cast<size_t>(num_clients), 0);
  std::vector<int> rejected_counts(static_cast<size_t>(num_clients), 0);
  std::vector<double> psnr_sums(static_cast<size_t>(num_clients), 0.0);
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      serve::Session session = server.open_session();
      std::vector<std::future<serve::Result>> futs;
      std::vector<int> idx;
      for (int i = c; i < num_images; i += num_clients) {
        serve::ReconstructRequest req;
        req.jfif = bitstreams[static_cast<size_t>(i)];
        req.deadline_ms = deadline_ms;
        futs.push_back(session.submit_future(req));
        idx.push_back(i);
      }
      for (size_t k = 0; k < futs.size(); ++k) {
        serve::Result r = futs[k].get();
        switch (r.outcome) {
          case serve::Outcome::kComplete:
            complete_counts[static_cast<size_t>(c)]++;
            break;
          case serve::Outcome::kDegraded:
            degraded_counts[static_cast<size_t>(c)]++;
            break;
          case serve::Outcome::kRejected:
            rejected_counts[static_cast<size_t>(c)]++;
            std::fprintf(stderr, "request %d rejected: %s\n", idx[k],
                         r.status.to_string().c_str());
            continue;  // no image to score
        }
        psnr_sums[static_cast<size_t>(c)] +=
            metrics::psnr(originals[static_cast<size_t>(idx[k])], r.image);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  int complete = 0, degraded = 0, rejected = 0;
  double psnr_sum = 0;
  for (int c = 0; c < num_clients; ++c) {
    complete += complete_counts[static_cast<size_t>(c)];
    degraded += degraded_counts[static_cast<size_t>(c)];
    rejected += rejected_counts[static_cast<size_t>(c)];
    psnr_sum += psnr_sums[static_cast<size_t>(c)];
  }
  const int served = complete + degraded;
  const auto stats = server.stats();
  obs::Histogram& e2e = obs::histogram("serve.e2e_seconds");
  obs::Histogram& bsz = obs::histogram("serve.batch_size");
  std::printf("served %d/%d images in %.3fs (%.2f images/sec), "
              "mean PSNR %.2f dB\n",
              served, num_images, wall,
              static_cast<double>(served) / wall,
              served > 0 ? psnr_sum / served : 0.0);
  std::printf("outcomes: complete=%d degraded=%d rejected=%d\n", complete,
              degraded, rejected);
  std::printf("latency p50=%.1fms p99=%.1fms  mean batch=%.2f over %llu "
              "steps\n",
              1e3 * e2e.percentile(0.5), 1e3 * e2e.percentile(0.99),
              bsz.count() ? bsz.sum() / static_cast<double>(bsz.count()) : 0.0,
              static_cast<unsigned long long>(stats.batches));
  std::printf("stats: accepted=%llu completed=%llu degraded=%llu "
              "rejected_queue_full=%llu rejected_decode=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.degraded),
              static_cast<unsigned long long>(stats.rejected_queue_full),
              static_cast<unsigned long long>(stats.rejected_decode));

  if (!stats_dump.empty()) {
    if (server.dump_stats(stats_dump)) {
      std::printf("stats: wrote %s (JSON) and %s.prom (Prometheus)\n",
                  stats_dump.c_str(), stats_dump.c_str());
    } else {
      std::fprintf(stderr, "serve_tool: failed to write %s\n",
                   stats_dump.c_str());
      return 1;
    }
  }

  // Every request must come back as a valid image — complete, or degraded
  // when its deadline cut sampling short.
  if (served != num_images) {
    std::fprintf(stderr, "serve_tool: %d requests failed\n",
                 num_images - served);
    return 1;
  }
  if (deadline_ms > 0) {
    std::printf("deadline %dms: %d complete, %d degraded\n", deadline_ms,
                complete, degraded);
  }
  std::printf("serve_tool: OK\n");
  return 0;
}

// soak_serve: schedule-perturbation soak for the serving stack.
//
// Sweeps N master seeds across M fault-plan templates (worker stalls, steal
// races, injected queue-full rejections, arena failures, checkpoint /
// postprocess throws, deadline clock skew), playing a mixed workload —
// final-only, progressive, deadline-bound, latency-tier, tiled, and
// deliberately abandoned streams — against a small multi-worker server for
// every (seed, plan) cell. After each run it asserts the serving
// invariants:
//
//   * every drained stream yields exactly one terminal Result, last;
//   * outcomes are typed: ok results carry an image, rejections carry a
//     non-ok Status (never a crash, never a silent drop);
//   * the server's own accounting balances: accepted ==
//     completed + degraded + rejected-after-accept;
//   * every kComplete untiled final is byte-identical to reconstruct(x)
//     of its bitstream with the request's options (compared as a digest of
//     the image's float bytes, references computed fault-free up front),
//     whichever requests joined or left the running batch around it. Even
//     seeds serve postprocessed finals; odd seeds serve the raw estimate
//     (ReconstructOptions::postprocess off), because the postprocess
//     re-quantizes every DC and so hides most drift in the model's bits;
//   * every accepted request and every tile was booked exactly once: the
//     flight recorder's lifetime count is accepted + tiles, and each
//     record's stamps run submit <= route <= batch <= model <= done;
//   * shutdown drains and joins inside the run (a hang trips the CTest
//     timeout).
//
// On the first violated invariant the soak prints the offending plan string
// (seed included) and the full fault-event log, then exits 1 — replaying
// that exact plan through DCDIFF_FAULT_PLAN reproduces the schedule.
//
// Flags / env:
//   --seeds N        master seeds per plan          (DCDIFF_SOAK_SEEDS, 4)
//   --requests N     requests per run               (DCDIFF_SOAK_REQUESTS, 10)
//   --budget-s S     wall-clock budget; no new run  (DCDIFF_SOAK_BUDGET_S, 120)
//                    starts after S seconds
//   --log PATH       also write the fault log JSON here on failure
//
// Exits 77 (the CTest skip code) when built without DCDIFF_FAULT_INJECTION.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "image/image.h"
#include "jpeg/codec.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "testing/fault.h"

using namespace dcdiff;

#if !defined(DCDIFF_FAULT_INJECTION)

int main() {
  std::fprintf(stderr,
               "soak_serve: built without DCDIFF_FAULT_INJECTION; "
               "configure with -DDCDIFF_FAULT_INJECTION=ON (skipping)\n");
  return 77;
}

#else

namespace {

// A small model with the paper's UNet widths (base 32, temb_dim 64). The
// width matters to the byte oracle: the 64 -> 32 timestep projection costs
// 4096 multiply-adds on one request's 2 rows and 8192 on a batch of two,
// so the GEMM's small-problem bound (4096) falls between a request run
// alone and one with a batch-mate. A linear that judged that bound per call
// instead of per row would change a batched request's bits, and the soak
// would see it; at base 8 / temb_dim 16 every embedding linear stays below
// the bound and such a bug passes.
core::DCDiffConfig soak_config() {
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
  cfg.unet.base = 32;
  cfg.unet.temb_dim = 64;
  cfg.ae_tag = "soak_fault_ae";
  cfg.tag = "soak_fault_unet32";
  return cfg;
}

int env_or(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v && *v ? std::atoi(v) : fallback;
}

// Plan templates; {seed} substituted per run. Each template perturbs a
// different cross-section of the stack.
const std::vector<std::pair<const char*, const char*>> kPlans = {
    {"schedule",
     "seed={seed};serve.worker.stall=p0.25@20;serve.steal_race.delay=p0.5@2"},
    {"capacity",
     "seed={seed};serve.submit.queue_full=p0.15;nn.plan.arena_fail=p0.3"},
    {"failures",
     "seed={seed};core.anytime.checkpoint_throw=p0.05;"
     "core.postprocess.fail=p0.05;serve.worker.stall=p0.2@15"},
    {"skew",
     "seed={seed};serve.deadline.skew=p0.3@150;serve.worker.stall=p0.2@25"},
};

std::string plan_for(const char* tmpl, uint64_t seed) {
  std::string s(tmpl);
  const std::string key = "{seed}";
  s.replace(s.find(key), key.size(), std::to_string(seed));
  return s;
}

struct RunOutcome {
  bool ok = true;
  std::string violation;
};

// FNV-1a over an image's float bytes: equal digests mean equal pixels, bit
// for bit.
uint64_t digest(const Image& img) {
  uint64_t h = 1469598103934665603ull;
  for (int c = 0; c < img.channels(); ++c) {
    const auto* b = reinterpret_cast<const unsigned char*>(img.plane(c).data());
    for (size_t i = 0; i < img.plane(c).size() * sizeof(float); ++i) {
      h = (h ^ b[i]) * 1099511628211ull;
    }
  }
  return h;
}

// One soak cell: fresh server under `plan_text` serving with `postprocess`,
// mixed workload, invariant sweep. `bitstreams` are pre-encoded so encode
// cost is out of the loop; `references` are the digests of reconstruct() of
// each with that postprocess setting.
RunOutcome run_cell(const std::string& plan_text, bool postprocess,
                    int requests,
                    const std::shared_ptr<const core::DCDiffModel>& model,
                    const std::vector<std::vector<uint8_t>>& bitstreams,
                    const std::vector<uint64_t>& references) {
  RunOutcome out;
  const auto fail = [&](std::string why) {
    out.ok = false;
    out.violation = std::move(why);
  };

  testing::FaultPlan plan;
  std::string err;
  if (!testing::FaultPlan::parse(plan_text, &plan, &err)) {
    fail("unparseable plan: " + err);
    return out;
  }
  testing::install_plan(plan);

  serve::ServerConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 2;
  cfg.batch_timeout_ms = 1;
  cfg.queue_capacity = requests;
  cfg.min_steps = 1;
  cfg.partial_interval = 1;
  cfg.recon.postprocess = postprocess;
  {
    serve::ReceiverServer server(cfg, model);
    serve::Session session = server.open_session();

    std::vector<serve::ResultStream> streams;
    std::vector<int> sources;  // request index of each kept stream
    uint64_t submitted = 0;
    for (int i = 0; i < requests; ++i) {
      serve::ReconstructRequest req;
      req.jfif = bitstreams[i % bitstreams.size()];
      req.tier = i % 2 == 0 ? serve::QosTier::kQuality
                            : serve::QosTier::kLatency;
      if (i % 3 == 1) req.delivery = serve::DeliveryMode::kProgressive;
      if (i % 4 == 2) req.deadline_ms = 60;
      if (i % 5 == 4) {  // oversized fan-out path
        req.tile.max_tile_px = 32;
        req.tile.halo_px = 16;
      }
      serve::ResultStream s = session.submit(req);
      ++submitted;
      // Every fourth stream is deliberately abandoned mid-flight (the
      // handle drops here); the server must suppress its partials and
      // still account it below.
      if (i % 4 == 3) continue;
      streams.push_back(std::move(s));
      sources.push_back(i);
    }

    for (size_t i = 0; i < streams.size(); ++i) {
      serve::ResultStream::Event ev;
      int terminals = 0;
      int last_partial_step = -1;
      serve::Result r;
      while (streams[i].next(&ev)) {
        if (ev.terminal) {
          ++terminals;
          r = std::move(ev.result);
        } else {
          if (terminals > 0) {
            fail("stream " + std::to_string(i) + ": partial after terminal");
          }
          if (ev.partial.step <= last_partial_step) {
            fail("stream " + std::to_string(i) + ": partial steps not "
                 "strictly increasing");
          }
          last_partial_step = ev.partial.step;
        }
      }
      if (terminals != 1) {
        fail("stream " + std::to_string(i) + ": " +
             std::to_string(terminals) + " terminal results (want 1)");
      }
      if (r.outcome == serve::Outcome::kRejected) {
        if (r.status.is_ok()) {
          fail("stream " + std::to_string(i) + ": kRejected with ok Status");
        }
      } else {
        if (!r.status.is_ok() || r.image.empty()) {
          fail("stream " + std::to_string(i) + ": ok outcome without image "
               "(" + r.status.to_string() + ")");
        }
        if (r.steps_done < cfg.min_steps) {
          fail("stream " + std::to_string(i) + ": served below min_steps");
        }
        const int src = sources[i];
        if (r.outcome == serve::Outcome::kComplete && r.tile_workers.empty() &&
            digest(r.image) != references[static_cast<size_t>(src) %
                                          references.size()]) {
          fail("stream " + std::to_string(i) + ": complete image differs "
               "from reconstruct() of its bitstream");
        }
      }
      if (!out.ok) return out;
    }

    server.shutdown();
    const auto stats = server.stats();
    if (stats.accepted !=
        stats.completed + stats.degraded + stats.internal_errors) {
      fail("accounting: accepted=" + std::to_string(stats.accepted) +
           " completed=" + std::to_string(stats.completed) +
           " degraded=" + std::to_string(stats.degraded) +
           " internal=" + std::to_string(stats.internal_errors));
    }
    const uint64_t submit_rejected = stats.rejected_queue_full +
                                     stats.rejected_decode +
                                     stats.rejected_shutdown;
    if (stats.accepted + submit_rejected != submitted) {
      fail("accounting: " + std::to_string(submitted) + " submitted vs " +
           std::to_string(stats.accepted + submit_rejected) + " accounted");
    }
    const obs::FlightRecorder& flight = server.flight_recorder();
    if (flight.total_recorded() != stats.accepted + stats.tiles) {
      fail("ledger: " + std::to_string(flight.total_recorded()) +
           " records for " + std::to_string(stats.accepted) +
           " accepted + " + std::to_string(stats.tiles) + " tiles");
    }
    for (const obs::RequestRecord& r : flight.snapshot()) {
      if (!(r.submit_us <= r.route_us && r.route_us <= r.batch_us &&
            r.batch_us <= r.model_us && r.model_us <= r.done_us)) {
        fail("ledger: request " + std::to_string(r.request_id) +
             " stamps out of order: " + obs::request_record_json(r));
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = env_or("DCDIFF_SOAK_SEEDS", 4);
  int requests = env_or("DCDIFF_SOAK_REQUESTS", 10);
  int budget_s = env_or("DCDIFF_SOAK_BUDGET_S", 120);
  std::string log_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seeds") && i + 1 < argc) {
      seeds = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--requests") && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--budget-s") && i + 1 < argc) {
      budget_s = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--log") && i + 1 < argc) {
      log_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 2;
    }
  }

  const auto cache =
      std::filesystem::temp_directory_path() / "dcdiff_soak_cache";
  std::filesystem::create_directories(cache);
  setenv("DCDIFF_CACHE_DIR", cache.c_str(), 0);

  const auto model = core::ModelPool::instance().get(soak_config());
  std::vector<std::vector<uint8_t>> bitstreams;
  for (int i = 0; i < 3; ++i) {
    bitstreams.push_back(
        core::sender_encode(
            data::dataset_image(data::DatasetId::kKodak, i, 64))
            .bytes);
  }

  // The byte references, computed fault-free: an empty plan also keeps a
  // DCDIFF_FAULT_PLAN from auto-installing during them. references[p] are
  // the digests with postprocess p.
  testing::install_plan(testing::FaultPlan{});
  std::vector<uint64_t> references[2];
  for (const bool postprocess : {false, true}) {
    core::ReconstructOptions opts;
    opts.postprocess = postprocess;
    for (const auto& bytes : bitstreams) {
      references[postprocess].push_back(
          digest(model->reconstruct(jpeg::decode_jfif(bytes), opts)));
    }
  }
  testing::clear_plan();

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  int cells = 0, skipped = 0;
  uint64_t fires = 0;
  for (int s = 0; s < seeds; ++s) {
    for (const auto& [name, tmpl] : kPlans) {
      if (elapsed_s() > budget_s) {
        ++skipped;
        continue;
      }
      const uint64_t seed = 1000 + static_cast<uint64_t>(s) * 7919;
      const std::string plan_text = plan_for(tmpl, seed);
      const bool postprocess = s % 2 == 0;
      const RunOutcome out = run_cell(plan_text, postprocess, requests, model,
                                      bitstreams, references[postprocess]);
      fires += testing::total_fires();
      if (!out.ok) {
        std::fprintf(stderr,
                     "soak_serve: INVARIANT VIOLATED\n  plan: %s\n  "
                     "postprocess: %s\n  violation: %s\n  "
                     "reproduce: DCDIFF_FAULT_PLAN='%s'\n",
                     plan_text.c_str(), postprocess ? "on" : "off",
                     out.violation.c_str(), plan_text.c_str());
        std::fprintf(stderr, "fault log:\n%s\n",
                     testing::fault_log_json().c_str());
        if (!log_path.empty() && testing::write_fault_log(log_path)) {
          std::fprintf(stderr, "fault log written to %s\n", log_path.c_str());
        }
        return 1;
      }
      testing::clear_plan();
      ++cells;
      std::printf("soak_serve: [%s seed=%llu postprocess=%d] ok (%.1fs "
                  "elapsed)\n",
                  name, static_cast<unsigned long long>(seed),
                  postprocess ? 1 : 0, elapsed_s());
      std::fflush(stdout);
    }
  }

  std::printf(
      "soak_serve: PASS  %d cells, %d skipped by budget, %llu total fault "
      "fires, %.1fs\n",
      cells, skipped, static_cast<unsigned long long>(fires), elapsed_s());
  if (cells == 0) {
    std::fprintf(stderr, "soak_serve: budget exhausted before any cell ran\n");
    return 1;
  }
  return 0;
}

#endif  // DCDIFF_FAULT_INJECTION

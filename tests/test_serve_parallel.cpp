// Tests for multi-worker serving: N workers running the server's one model,
// each with its own queue and thread-pool partition, and for model replicas.
//
// The load-bearing properties:
//   * Results served through any number of workers are numerically identical
//     to the single-worker path (every worker runs the one frozen model;
//     sampling is seeded per request, not per worker).
//   * Every worker runs the server's model; replicas genuinely share state:
//     same component instances, O(1) construction, training refused.
//   * Work stealing keeps workers busy when routing is skewed
//     (ReconstructRequest::worker_hint constructs the skew
//     deterministically).
//   * Shutdown drains every per-worker queue, not just one.
//   * Step-level batching: a request joins a worker's running batch at the
//     next DDIM step boundary (a lone one on an idle worker at once), and
//     requests of different padded sizes (plain and tiles) run side by side
//     on one worker, each byte-identical to its single-request reference.
//
// Runs under the `concurrency` CTest label; a TSan build
// (-DDCDIFF_TSAN=ON) exercises the same binary for data races.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/datasets.h"
#include "jpeg/codec.h"
#include "nn/threadpool.h"

namespace dcdiff::serve {
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
  cfg.ae_tag = "test_servepar_ae";
  cfg.tag = "test_servepar";
  return cfg;
}

class ServeParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ =
        std::filesystem::temp_directory_path() / "dcdiff_servepar_test_cache";
    std::filesystem::create_directories(cache_dir_);
    setenv("DCDIFF_CACHE_DIR", cache_dir_.c_str(), 1);
    model_ = core::ModelPool::instance().get(tiny_config());
  }
  static void TearDownTestSuite() {
    model_.reset();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }

  static std::vector<uint8_t> bitstream(int idx) {
    const Image img = data::dataset_image(data::DatasetId::kKodak, idx, 64);
    return core::sender_encode(img).bytes;
  }

  static ReconstructRequest request(std::vector<uint8_t> bytes,
                                    int worker_hint = -1) {
    ReconstructRequest req;
    req.jfif = std::move(bytes);
    req.worker_hint = worker_hint;
    return req;
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

  static ServerConfig sharded_config(int workers) {
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.max_batch = 2;
    cfg.queue_capacity = 64;
    return cfg;
  }

  // The flight recorder's record of request `id`.
  static obs::RequestRecord record_of(const ReceiverServer& server,
                                      uint64_t id) {
    for (const obs::RequestRecord& r : server.flight_recorder().snapshot()) {
      if (r.request_id == id) return r;
    }
    ADD_FAILURE() << "no record for request " << id;
    return {};
  }

  static std::filesystem::path cache_dir_;
  static std::shared_ptr<const core::DCDiffModel> model_;
};

std::filesystem::path ServeParallelTest::cache_dir_;
std::shared_ptr<const core::DCDiffModel> ServeParallelTest::model_;

// ---- replica semantics (core layer) ----

TEST_F(ServeParallelTest, ReplicateSharesComponentsAndPanels) {
  const auto rep = core::DCDiffModel::replicate(model_);
  ASSERT_NE(rep, nullptr);
  EXPECT_TRUE(rep->is_replica());
  EXPECT_FALSE(model_->is_replica());
  // Shared, not copied: the replica aliases the source's components, so
  // every weight tensor exists once per process.
  EXPECT_EQ(&rep->autoencoder(), &model_->autoencoder());
  EXPECT_EQ(&rep->unet(), &model_->unet());
}

TEST_F(ServeParallelTest, ReplicaReconstructsBitIdentically) {
  const auto rep = core::DCDiffModel::replicate(model_);
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bitstream(0));
  const Image a = model_->reconstruct(coeffs);
  const Image b = rep->reconstruct(coeffs);
  // Same weights, same seed derivation, same kernels: exactly equal.
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

TEST_F(ServeParallelTest, ReplicaRefusesTraining) {
  const auto rep = core::DCDiffModel::replicate(model_);
  auto& mutable_rep = const_cast<core::DCDiffModel&>(*rep);
  EXPECT_THROW(mutable_rep.train_stage1(), std::logic_error);
  EXPECT_THROW(mutable_rep.train_stage2(), std::logic_error);
  EXPECT_THROW(mutable_rep.train_fmpp(), std::logic_error);
  EXPECT_THROW(mutable_rep.train_or_load(), std::logic_error);
}

// ---- sharded serving: equivalence with the single-worker path ----

TEST_F(ServeParallelTest, ThreeWorkerResultsMatchSingleWorker) {
  constexpr int kImages = 6;
  std::vector<std::vector<uint8_t>> streams;
  for (int i = 0; i < kImages; ++i) streams.push_back(bitstream(i));

  // Single-worker reference results.
  std::vector<Image> reference(kImages);
  {
    ReceiverServer server(sharded_config(1), model_);
    Session session = server.open_session();
    for (int i = 0; i < kImages; ++i) {
      Result r = session.reconstruct(request(streams[static_cast<size_t>(i)]));
      ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
      reference[static_cast<size_t>(i)] = std::move(r.image);
    }
  }

  ReceiverServer server(sharded_config(3), model_);
  ASSERT_EQ(server.config().workers, 3);
  Session session = server.open_session();
  std::vector<std::future<Result>> futs;
  for (const auto& bytes : streams) {
    futs.push_back(session.submit_future(request(bytes)));
  }
  for (int i = 0; i < kImages; ++i) {
    Result r = futs[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_EQ(r.outcome, Outcome::kComplete);
    EXPECT_EQ(max_abs_diff(reference[static_cast<size_t>(i)], r.image), 0.0)
        << "image " << i;
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kImages));
  ASSERT_EQ(stats.workers.size(), 3u);
  uint64_t worker_batches = 0;
  for (const auto& w : stats.workers) worker_batches += w.batches;
  EXPECT_EQ(worker_batches, stats.batches);
}

TEST_F(ServeParallelTest, ConcurrentSessionsAcrossWorkersAllMatch) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  ServerConfig cfg = sharded_config(3);
  cfg.queue_capacity = kClients * kPerClient;
  ReceiverServer server(cfg, model_);

  std::vector<std::vector<uint8_t>> streams;
  for (int i = 0; i < kPerClient; ++i) streams.push_back(bitstream(i));
  std::vector<Image> reference;
  for (const auto& bytes : streams) {
    reference.push_back(core::receiver_reconstruct(bytes, *model_));
  }

  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session session = server.open_session();
      std::vector<std::future<Result>> futs;
      for (const auto& bytes : streams) {
        futs.push_back(session.submit_future(request(bytes)));
      }
      for (size_t i = 0; i < futs.size(); ++i) {
        Result r = futs[i].get();
        if (r.outcome != Outcome::kComplete ||
            max_abs_diff(reference[i], r.image) != 0.0) {
          ++failures[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<size_t>(c)], 0) << "client " << c;
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kClients * kPerClient));
}

// ---- routing and stealing ----

TEST_F(ServeParallelTest, WorkerHintPinsRouting) {
  ServerConfig cfg = sharded_config(3);
  cfg.batch_timeout_ms = 0;
  cfg.max_batch = 1;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  // hint 7 modulo 3 workers -> worker 1
  Result r = session.reconstruct(request(bitstream(0), /*worker_hint=*/7));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::kComplete);
}

TEST_F(ServeParallelTest, DryWorkersStealFromHintedQueue) {
  constexpr int kImages = 12;
  ServerConfig cfg = sharded_config(3);
  cfg.batch_timeout_ms = 0;  // no window: stealing, not batching, drains
  cfg.max_batch = 1;
  cfg.queue_capacity = kImages;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();

  const auto bytes = bitstream(0);
  const Image reference = core::receiver_reconstruct(bytes, *model_);

  // Pin every request to worker 0: workers 1 and 2 only ever see work by
  // stealing, so a drained queue with steals == 0 would mean the stealing
  // path never ran.
  std::vector<std::future<Result>> futs;
  for (int i = 0; i < kImages; ++i) {
    futs.push_back(session.submit_future(request(bytes, /*worker_hint=*/0)));
  }
  for (auto& f : futs) {
    Result r = f.get();
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_EQ(max_abs_diff(reference, r.image), 0.0);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kImages));
  EXPECT_GT(stats.steals, 0u);
  uint64_t worker_steals = 0;
  for (const auto& w : stats.workers) worker_steals += w.steals;
  EXPECT_EQ(worker_steals, stats.steals);
}

// ---- shutdown drain ----

TEST_F(ServeParallelTest, ShutdownDrainsEveryWorkerQueue) {
  constexpr int kImages = 9;
  ServerConfig cfg = sharded_config(3);
  cfg.queue_capacity = kImages;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  std::vector<std::future<Result>> futs;
  for (int i = 0; i < kImages; ++i) {
    // Spread deliberately unevenly: worker 0 gets 2x the share, so the drain
    // must cross queues to finish.
    const int hint = i % 4 == 3 ? 1 : i % 4 == 2 ? 2 : 0;
    futs.push_back(session.submit_future(request(bitstream(i % 3), hint)));
  }
  server.shutdown();  // must complete everything accepted, on all queues
  for (auto& f : futs) {
    EXPECT_TRUE(f.get().status.is_ok());
  }
  EXPECT_EQ(server.stats().completed, static_cast<uint64_t>(kImages));
}

// ---- step-level batching ----

// A request submitted while another is mid-chain joins the running batch at
// the next step boundary instead of waiting for the chain to end: its join
// stamp falls inside its batch-mate's chain, it joined a batch of two, and
// each image equals reconstruct(x) of its own bitstream byte for byte.
TEST_F(ServeParallelTest, MidChainRequestJoinsAtNextBoundary) {
  ServerConfig cfg = sharded_config(1);
  cfg.recon.ddim_steps = 40;  // a long chain to join in the middle of
  cfg.partial_interval = 1;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  const auto first_bytes = bitstream(0);
  const auto second_bytes = bitstream(1);

  ReconstructRequest first = request(first_bytes);
  first.delivery = DeliveryMode::kProgressive;
  ResultStream first_stream = session.submit(first);
  ResultStream::Event ev;
  ASSERT_TRUE(first_stream.next(&ev));  // a partial: the chain is running
  ASSERT_FALSE(ev.terminal);
  const Result second = session.reconstruct(request(second_bytes));
  const Result first_result = first_stream.wait();
  ASSERT_TRUE(first_result.status.is_ok()) << first_result.status.to_string();
  ASSERT_TRUE(second.status.is_ok()) << second.status.to_string();
  EXPECT_EQ(first_result.outcome, Outcome::kComplete);
  EXPECT_EQ(second.outcome, Outcome::kComplete);

  const obs::RequestRecord a = record_of(server, 1);
  const obs::RequestRecord b = record_of(server, 2);
  EXPECT_LT(a.model_us, b.model_us);
  EXPECT_LT(b.model_us, a.done_us) << "the second request waited for the "
                                      "first chain to end";
  EXPECT_EQ(a.batch_size, 1);
  EXPECT_EQ(b.batch_size, 2);

  core::ReconstructOptions opts;
  opts.ddim_steps = 40;
  EXPECT_EQ(max_abs_diff(first_result.image,
                         model_->reconstruct(jpeg::decode_jfif(first_bytes),
                                             opts)),
            0.0);
  EXPECT_EQ(max_abs_diff(second.image,
                         model_->reconstruct(jpeg::decode_jfif(second_bytes),
                                             opts)),
            0.0);
}

// A worker runs one batch per padded size side by side: a plain 64 px
// request and the 48 px tiles of another share its steps, the plain image
// equals reconstruct(x) and the stitched one the public tiler's reference
// (its tiles through reconstruct_batch_anytime, stitched), byte for byte.
TEST_F(ServeParallelTest, PlainAndTileRequestsOfTwoSizesShareOneWorker) {
  ServerConfig cfg = sharded_config(1);
  cfg.max_batch = 8;
  cfg.queue_capacity = 16;
  cfg.recon.ddim_steps = 40;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  const auto plain_bytes = bitstream(0);
  ReconstructRequest tiled = request(bitstream(1));
  tiled.tile.max_tile_px = 32;
  tiled.tile.halo_px = 16;
  ResultStream tiled_stream = session.submit(tiled);
  ResultStream plain_stream = session.submit(request(plain_bytes));
  const Result plain = plain_stream.wait();
  const Result stitched = tiled_stream.wait();
  ASSERT_TRUE(plain.status.is_ok()) << plain.status.to_string();
  ASSERT_TRUE(stitched.status.is_ok()) << stitched.status.to_string();
  ASSERT_EQ(stitched.tile_workers.size(), 4u);

  // Ids: the tiled parent 1, its tiles 2..5, the plain request 6. The
  // plain chain overlapped the tile chains on the one worker.
  const obs::RequestRecord p = record_of(server, 6);
  bool overlapped = false;
  for (uint64_t id = 2; id <= 5; ++id) {
    const obs::RequestRecord t = record_of(server, id);
    EXPECT_EQ(t.worker, 0);
    overlapped |= t.model_us < p.done_us && p.model_us < t.done_us;
  }
  EXPECT_TRUE(overlapped);
  EXPECT_GE(p.batch_size, 2);

  core::ReconstructOptions opts;
  opts.ddim_steps = 40;
  EXPECT_EQ(max_abs_diff(plain.image,
                         model_->reconstruct(jpeg::decode_jfif(plain_bytes),
                                             opts)),
            0.0);
  const jpeg::CoeffImage full = jpeg::decode_jfif(tiled.jfif);
  const TileLayout layout = plan_tiles(full, tiled.tile);
  std::vector<jpeg::CoeffImage> tiles;
  for (const TileSpec& t : layout.tiles) tiles.push_back(extract_tile(full, t));
  std::vector<core::AnytimeItem> items;
  for (size_t i = 0; i < tiles.size(); ++i) {
    items.push_back({&tiles[i], layout.tiles[i].cx0 / 4,
                     layout.tiles[i].cy0 / 4});
  }
  opts.coord_noise = true;
  opts.postprocess = false;
  opts.use_fmpp = false;
  const Image reference = stitch_tiles(
      full, layout,
      model_->reconstruct_batch_anytime(items, opts, core::AnytimeControl{})
          .images);
  EXPECT_EQ(max_abs_diff(stitched.image, reference), 0.0);
}

// An idle worker starts a popped request at once, alone, however long
// batch_timeout_ms (accepted and ignored) asks it to wait for batch-mates.
TEST_F(ServeParallelTest, LoneRequestOnIdleWorkerStartsAtOnce) {
  ServerConfig cfg = sharded_config(1);
  cfg.batch_timeout_ms = 400;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  const auto bytes = bitstream(0);
  const Result r = session.reconstruct(request(bytes));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.steps_done, r.steps_target);
  const obs::RequestRecord rec = record_of(server, 1);
  EXPECT_EQ(rec.batch_size, 1);
  EXPECT_LT(rec.model_us - rec.batch_us, 1e3 * cfg.batch_timeout_ms / 2)
      << "the request waited for batch-mates";
  EXPECT_EQ(max_abs_diff(r.image, core::receiver_reconstruct(bytes, *model_)),
            0.0);
}

// ---- one shared model, worker-local partitions ----

// Plans are immutable and run in the calling thread's arena, so every
// worker runs the server's one model (and its one plan cache).
TEST_F(ServeParallelTest, WorkersRunOnSharedWeightReplicas) {
  ReceiverServer server(sharded_config(3), model_);
  EXPECT_EQ(&server.model(), model_.get());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(&server.worker_model(i), model_.get()) << "worker " << i;
  }
}

TEST_F(ServeParallelTest, PartitionPoolsCoverDisjointThreads) {
  const auto pools = nn::partition_pools(3, 6, /*pin_cpus=*/false);
  ASSERT_EQ(pools.size(), 3u);
  int total = 0;
  for (const auto& p : pools) total += p->num_threads();
  EXPECT_EQ(total, 6);
  // Binding dispatches nested loops to the bound partition.
  nn::PoolBinding bind(pools[1].get());
  EXPECT_EQ(&nn::ThreadPool::current(), pools[1].get());
}

}  // namespace
}  // namespace dcdiff::serve

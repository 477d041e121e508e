// Tests for MCU-aligned tiled fan-out (serve/tiler.h) and tiled serving.
//
// Layout/extraction are exact, unit-testable properties: tile interiors
// partition the image on MCU boundaries, crops stay in bounds, an extracted
// tile's coefficients match the parent's. Stitching is tested two ways:
//   * Identity: stitching exact crops of a known image reproduces that image
//     (modulo the global postprocess both paths share) exactly — the offset
//     reconciliation and blend machinery must be a no-op when tiles already
//     agree.
//   * End-to-end: a 128 px image served through a 4x4 tile grid across a
//     3-worker server lands close to the comparable untiled reconstruction.
//     Exact equality is unattainable by construction — GroupNorm normalizes
//     over whole-tensor statistics and the UNet's receptive field exceeds
//     any affordable halo — so the interior/seam bounds here are calibrated
//     empirical contracts (see DESIGN.md §14), not byte equality.
//
// Runs under the `concurrency` CTest label (3-worker fan-out test).
#include "serve/tiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <vector>

#include "core/pipeline.h"
#include "core/postprocess.h"
#include "data/datasets.h"
#include "jpeg/codec.h"
#include "serve/server.h"

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
  cfg.ae_tag = "test_tiling_ae";
  cfg.tag = "test_tiling";
  return cfg;
}

TilePolicy test_policy() {
  TilePolicy tile;
  tile.max_tile_px = 32;
  tile.halo_px = 16;
  tile.overlap_px = 8;
  return tile;
}

class TilingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ =
        std::filesystem::temp_directory_path() / "dcdiff_tiling_test_cache";
    std::filesystem::create_directories(cache_dir_);
    setenv("DCDIFF_CACHE_DIR", cache_dir_.c_str(), 1);
    model_ = core::ModelPool::instance().get(tiny_config());
  }
  static void TearDownTestSuite() {
    model_.reset();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }

  // A 128 px image: 4x the 32 px tile side, so the policy yields a 4x4 grid.
  static Image big_image() {
    return data::dataset_image(data::DatasetId::kKodak, 0, 128);
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

  static std::filesystem::path cache_dir_;
  static std::shared_ptr<const core::DCDiffModel> model_;
};

std::filesystem::path TilingTest::cache_dir_;
std::shared_ptr<const core::DCDiffModel> TilingTest::model_;

// ---- layout ----

TEST_F(TilingTest, PlanTilesUntiledWhenDisabledOrImageFits) {
  const jpeg::CoeffImage coeffs =
      jpeg::decode_jfif(core::sender_encode(big_image()).bytes);
  TilePolicy off;  // max_tile_px = 0
  EXPECT_FALSE(plan_tiles(coeffs, off).tiled());
  TilePolicy roomy = test_policy();
  roomy.max_tile_px = 256;  // image fits in one tile
  EXPECT_FALSE(plan_tiles(coeffs, roomy).tiled());
}

TEST_F(TilingTest, PlanTilesGridIsMcuAlignedAndCoversImage) {
  const jpeg::CoeffImage coeffs =
      jpeg::decode_jfif(core::sender_encode(big_image()).bytes);
  const TileLayout layout = plan_tiles(coeffs, test_policy());
  ASSERT_TRUE(layout.tiled());
  EXPECT_EQ(layout.tiles_x, 4);
  EXPECT_EQ(layout.tiles_y, 4);
  EXPECT_EQ(layout.width, 128);
  EXPECT_EQ(layout.height, 128);
  ASSERT_EQ(layout.tiles.size(), 16u);

  // Color 4:2:0: MCU is 16 px; every interior origin must sit on it and the
  // interiors must partition the image exactly.
  const int mcu = 16;
  long long area = 0;
  for (const TileSpec& t : layout.tiles) {
    EXPECT_EQ(t.x0 % mcu, 0);
    EXPECT_EQ(t.y0 % mcu, 0);
    EXPECT_LT(t.x0, t.x1);
    EXPECT_LT(t.y0, t.y1);
    area += static_cast<long long>(t.x1 - t.x0) * (t.y1 - t.y0);
    // Crop contains the interior plus a bounded, in-bounds halo.
    EXPECT_LE(t.cx0, t.x0);
    EXPECT_LE(t.cy0, t.y0);
    EXPECT_GE(t.cx1, t.x1);
    EXPECT_GE(t.cy1, t.y1);
    EXPECT_GE(t.cx0, 0);
    EXPECT_GE(t.cy0, 0);
    EXPECT_LE(t.cx1, layout.width);
    EXPECT_LE(t.cy1, layout.height);
    EXPECT_EQ(t.cx0 % mcu, 0);  // crops are themselves MCU-aligned
    EXPECT_EQ(t.cy0 % mcu, 0);
  }
  EXPECT_EQ(area, 128ll * 128ll);  // exact partition: no gaps, no overlap
}

// ---- extraction ----

TEST_F(TilingTest, ExtractedTileDecodesToTheParentCrop) {
  const jpeg::CoeffImage coeffs =
      jpeg::decode_jfif(core::sender_encode(big_image()).bytes);
  const TileLayout layout = plan_tiles(coeffs, test_policy());
  ASSERT_TRUE(layout.tiled());
  // The AC-only tilde image is a pure per-block transform of the
  // coefficients, so an extracted tile's tilde must equal the parent
  // tilde's crop exactly — blocks are copied, not re-encoded.
  const Image full_tilde = jpeg::tilde_image(coeffs);
  for (const int idx : {0, 5, 15}) {  // corner, interior, opposite corner
    const TileSpec& t = layout.tiles[static_cast<size_t>(idx)];
    const jpeg::CoeffImage tile = extract_tile(coeffs, t);
    const Image tile_tilde = jpeg::tilde_image(tile);
    ASSERT_EQ(tile_tilde.width(), t.cx1 - t.cx0);
    ASSERT_EQ(tile_tilde.height(), t.cy1 - t.cy0);
    const Image ref =
        crop(full_tilde, t.cx0, t.cy0, t.cx1 - t.cx0, t.cy1 - t.cy0);
    EXPECT_EQ(max_abs_diff(tile_tilde, ref), 0.0) << "tile " << idx;
  }
}

// ---- stitching ----

// When the tile images are exact crops of one image, reconciliation deltas
// are zero, the corner-anchor fields vanish, and the blend averages equal
// contributions: stitch must reduce to the shared global postprocess.
TEST_F(TilingTest, StitchingExactCropsIsIdentityModuloPostprocess) {
  const Image x = big_image();
  const jpeg::CoeffImage coeffs =
      jpeg::decode_jfif(core::sender_encode(x).bytes);
  const TileLayout layout = plan_tiles(coeffs, test_policy());
  ASSERT_TRUE(layout.tiled());

  std::vector<Image> tiles;
  for (const TileSpec& t : layout.tiles) {
    tiles.push_back(crop(x, t.cx0, t.cy0, t.cx1 - t.cx0, t.cy1 - t.cy0));
  }
  const Image stitched = stitch_tiles(coeffs, layout, tiles);

  const Image anchored = core::anchor_to_corners(x, jpeg::tilde_image(coeffs));
  const Image expected = core::project_onto_known_ac(anchored, coeffs);
  EXPECT_EQ(max_abs_diff(stitched, expected), 0.0);
}

// ---- edge geometry ----

// An image smaller than one MCU can never split: even a policy demanding
// tiles smaller than the MCU yields the untiled layout (side is floored at
// one MCU, and a single-tile grid is not a fan-out). A slightly larger
// image may tile at a sub-16 MCU (a crop this small is not 4:2:0), but its
// interiors must still partition the image exactly.
TEST_F(TilingTest, SubMcuImageNeverTiles) {
  const Image tiny = crop(big_image(), 0, 0, 6, 7);
  const jpeg::CoeffImage coeffs =
      jpeg::decode_jfif(core::sender_encode(tiny).bytes);
  EXPECT_EQ(coeffs.width, 6);
  EXPECT_EQ(coeffs.height, 7);
  TilePolicy policy = test_policy();
  policy.max_tile_px = 4;  // smaller than any MCU: floored at one MCU
  const TileLayout layout = plan_tiles(coeffs, policy);
  EXPECT_FALSE(layout.tiled());
  EXPECT_EQ(layout.width, 6);
  EXPECT_EQ(layout.height, 7);

  const Image small = crop(big_image(), 0, 0, 12, 10);
  const jpeg::CoeffImage scoeffs =
      jpeg::decode_jfif(core::sender_encode(small).bytes);
  policy.max_tile_px = 8;
  const TileLayout slayout = plan_tiles(scoeffs, policy);
  long long area = 0;
  for (const TileSpec& t : slayout.tiles) {
    EXPECT_GE(t.cx0, 0);
    EXPECT_GE(t.cy0, 0);
    EXPECT_LE(t.cx1, 12);
    EXPECT_LE(t.cy1, 10);
    area += static_cast<long long>(t.x1 - t.x0) * (t.y1 - t.y0);
  }
  if (slayout.tiled()) EXPECT_EQ(area, 12ll * 10ll);
}

// A wide strip one tile tall must produce a 1xN grid whose interiors span
// the full height and partition the strip exactly — and stitching exact
// crops of it must still reduce to the shared postprocess.
TEST_F(TilingTest, StripImageYieldsOneByNGridAndStitches) {
  const Image strip = crop(big_image(), 0, 0, 128, 16);
  const jpeg::CoeffImage coeffs =
      jpeg::decode_jfif(core::sender_encode(strip).bytes);
  const TileLayout layout = plan_tiles(coeffs, test_policy());
  ASSERT_TRUE(layout.tiled());
  EXPECT_EQ(layout.tiles_x, 4);
  EXPECT_EQ(layout.tiles_y, 1);
  long long area = 0;
  for (const TileSpec& t : layout.tiles) {
    EXPECT_EQ(t.y0, 0);
    EXPECT_EQ(t.y1, 16);  // full height, no vertical cuts
    EXPECT_EQ(t.cy0, 0);
    EXPECT_EQ(t.cy1, 16);  // vertical halo clamps to the strip
    area += static_cast<long long>(t.x1 - t.x0) * (t.y1 - t.y0);
  }
  EXPECT_EQ(area, 128ll * 16ll);

  std::vector<Image> tiles;
  for (const TileSpec& t : layout.tiles) {
    tiles.push_back(crop(strip, t.cx0, t.cy0, t.cx1 - t.cx0, t.cy1 - t.cy0));
  }
  const Image stitched = stitch_tiles(coeffs, layout, tiles);
  const Image anchored =
      core::anchor_to_corners(strip, jpeg::tilde_image(coeffs));
  const Image expected = core::project_onto_known_ac(anchored, coeffs);
  EXPECT_EQ(max_abs_diff(stitched, expected), 0.0);
}

// Dimensions that are neither a tile-side nor a halo multiple: the last
// row/column of tiles is ragged but still covers the image exactly, crop
// origins stay MCU-aligned, and extraction + identity stitching hold.
TEST_F(TilingTest, RaggedNonHaloMultipleDimsCoverExactly) {
  const Image odd = crop(big_image(), 0, 0, 104, 88);
  const jpeg::CoeffImage coeffs =
      jpeg::decode_jfif(core::sender_encode(odd).bytes);
  TilePolicy policy = test_policy();
  policy.halo_px = 12;  // not an MCU multiple: must round up to 16
  const TileLayout layout = plan_tiles(coeffs, policy);
  ASSERT_TRUE(layout.tiled());
  EXPECT_EQ(layout.tiles_x, 4);  // ceil(104 / 32)
  EXPECT_EQ(layout.tiles_y, 3);  // ceil(88 / 32)

  const int mcu = 16;
  long long area = 0;
  for (const TileSpec& t : layout.tiles) {
    EXPECT_EQ(t.x0 % mcu, 0);
    EXPECT_EQ(t.y0 % mcu, 0);
    EXPECT_EQ(t.cx0 % mcu, 0);
    EXPECT_EQ(t.cy0 % mcu, 0);
    EXPECT_LE(t.x1, 104);
    EXPECT_LE(t.y1, 88);
    EXPECT_LE(t.cx1, 104);
    EXPECT_LE(t.cy1, 88);
    // The rounded halo is visible on interior-left crops: exactly 16 px.
    if (t.x0 > 0) EXPECT_EQ(t.x0 - t.cx0, 16);
    area += static_cast<long long>(t.x1 - t.x0) * (t.y1 - t.y0);
  }
  EXPECT_EQ(area, 104ll * 88ll);  // exact cover despite ragged edges

  // Extraction at the ragged bottom-right corner matches the parent crop.
  const TileSpec& last = layout.tiles.back();
  const jpeg::CoeffImage tile = extract_tile(coeffs, last);
  const Image tile_tilde = jpeg::tilde_image(tile);
  const Image ref = crop(jpeg::tilde_image(coeffs), last.cx0, last.cy0,
                         last.cx1 - last.cx0, last.cy1 - last.cy0);
  EXPECT_EQ(max_abs_diff(tile_tilde, ref), 0.0);

  std::vector<Image> tiles;
  for (const TileSpec& t : layout.tiles) {
    tiles.push_back(crop(odd, t.cx0, t.cy0, t.cx1 - t.cx0, t.cy1 - t.cy0));
  }
  const Image stitched = stitch_tiles(coeffs, layout, tiles);
  const Image anchored =
      core::anchor_to_corners(odd, jpeg::tilde_image(coeffs));
  const Image expected = core::project_onto_known_ac(anchored, coeffs);
  EXPECT_EQ(max_abs_diff(stitched, expected), 0.0);
}

TEST_F(TilingTest, StitchRejectsMismatchedTileCount) {
  const jpeg::CoeffImage coeffs =
      jpeg::decode_jfif(core::sender_encode(big_image()).bytes);
  const TileLayout layout = plan_tiles(coeffs, test_policy());
  std::vector<Image> tiles(3);  // wrong count
  EXPECT_THROW(stitch_tiles(coeffs, layout, tiles), std::invalid_argument);
}

// ---- served tiled reconstruction ----

// A request whose tile policy the image fits inside must take the untiled
// bit-compat path: byte-identical to the direct reconstruction.
TEST_F(TilingTest, FittingImageServesUntiledAndMatchesDirect) {
  const auto bytes = core::sender_encode(big_image()).bytes;
  ServerConfig cfg;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  ReconstructRequest req;
  req.jfif = bytes;
  req.tile = test_policy();
  req.tile.max_tile_px = 256;  // fits: single tile, no fan-out
  const Result r = session.reconstruct(req);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::kComplete);
  EXPECT_TRUE(r.tile_workers.empty());
  const Image direct = core::receiver_reconstruct(bytes, *model_);
  EXPECT_EQ(max_abs_diff(direct, r.image), 0.0);
  EXPECT_EQ(server.stats().tiles, 0u);
}

// The fan-out acceptance test: 128 px image, 4x4 grid, 3 workers. The
// stitched result must be a valid full-size image produced by >= 2 distinct
// workers, close to the comparable untiled run (same coordinate-seeded
// noise, no FMPP) on tile interiors, with bounded error at the seams.
TEST_F(TilingTest, TiledServingFansOutAndApproximatesUntiled) {
  const Image original = big_image();
  const auto bytes = core::sender_encode(original).bytes;
  const jpeg::CoeffImage coeffs = jpeg::decode_jfif(bytes);
  const TileLayout layout = plan_tiles(coeffs, test_policy());
  ASSERT_TRUE(layout.tiled());

  ServerConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  ReceiverServer server(cfg, model_);
  Session session = server.open_session();
  ReconstructRequest req;
  req.jfif = bytes;
  req.tile = test_policy();
  const Result r = session.reconstruct(req);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::kComplete);
  ASSERT_FALSE(r.image.empty());
  EXPECT_EQ(r.image.width(), original.width());
  EXPECT_EQ(r.image.height(), original.height());

  // Fan-out: every tile ran, across at least two distinct workers.
  ASSERT_EQ(r.tile_workers.size(), layout.tiles.size());
  const std::set<int> distinct(r.tile_workers.begin(), r.tile_workers.end());
  EXPECT_GE(distinct.size(), 2u) << "tiles did not spread across workers";
  const auto stats = server.stats();
  EXPECT_EQ(stats.tiles, layout.tiles.size());
  EXPECT_EQ(stats.completed, 1u);  // one logical request

  // Untiled reference under the tile path's inference options: coordinate-
  // seeded noise at origin (0,0), FMPP off (FMPP's modulation scalars are
  // whole-image statistics, meaningless per tile).
  core::ReconstructOptions opts;
  opts.coord_noise = true;
  opts.use_fmpp = false;
  const Image reference = model_->reconstruct(coeffs, opts);

  // Split pixels into interior vs seam band (within overlap_px of an
  // interior tile boundary). GroupNorm's global statistics make exact
  // equality impossible; these are calibrated contracts on a [0,255] scale.
  std::set<int> xcuts, ycuts;
  for (const TileSpec& t : layout.tiles) {
    if (t.x0 > 0) xcuts.insert(t.x0);
    if (t.y0 > 0) ycuts.insert(t.y0);
  }
  const int ov = layout.overlap_px;
  const auto near_cut = [&](const std::set<int>& cuts, int p) {
    for (const int c : cuts) {
      if (p >= c - ov && p < c + ov) return true;
    }
    return false;
  };
  double interior_max = 0, interior_sum = 0, seam_max = 0;
  long long interior_n = 0;
  for (int c = 0; c < reference.channels(); ++c) {
    for (int y = 0; y < reference.height(); ++y) {
      for (int x = 0; x < reference.width(); ++x) {
        const double d = std::fabs(reference.at(c, y, x) - r.image.at(c, y, x));
        if (near_cut(xcuts, x) || near_cut(ycuts, y)) {
          seam_max = std::max(seam_max, d);
        } else {
          interior_max = std::max(interior_max, d);
          interior_sum += d;
          ++interior_n;
        }
      }
    }
  }
  const double interior_mean = interior_sum / static_cast<double>(interior_n);
  // Calibrated bounds (deterministic sampling: these are stable, not
  // flaky; measured ~9.7 mean on the tiny test model).
  EXPECT_LE(interior_mean, 14.0) << "tile interiors drifted from untiled";
  EXPECT_LE(interior_max, 96.0);
  EXPECT_LE(seam_max, 128.0) << "seam error unbounded";
}

}  // namespace
}  // namespace dcdiff::serve

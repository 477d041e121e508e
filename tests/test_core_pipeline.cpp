#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "data/datasets.h"
#include "jpeg/dcdrop.h"
#include "metrics/metrics.h"

namespace dcdiff::core {
namespace {

// Tiny configuration: exercises every code path in seconds on one core.
DCDiffConfig tiny_config(const std::string& tag) {
  DCDiffConfig cfg;
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
  cfg.ae_tag = "test_ae_" + tag;
  cfg.tag = "test_" + tag;
  return cfg;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ = std::filesystem::temp_directory_path() / "dcdiff_test_cache";
    std::filesystem::create_directories(cache_dir_);
    setenv("DCDIFF_CACHE_DIR", cache_dir_.c_str(), 1);
  }
  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }
  static std::filesystem::path cache_dir_;
};

std::filesystem::path PipelineTest::cache_dir_;

jpeg::CoeffImage dropped_for(const Image& img, int quality = 50) {
  jpeg::CoeffImage ci = jpeg::forward_transform(img, quality);
  jpeg::drop_dc(ci);
  return ci;
}

TEST_F(PipelineTest, TrainingRunsAndCaches) {
  DCDiffModel model(tiny_config("a"));
  model.train_or_load();
  EXPECT_TRUE(std::filesystem::exists(
      std::string(std::getenv("DCDIFF_CACHE_DIR")) +
      "/dcdiff_test_ae_a.bin"));
  EXPECT_TRUE(std::filesystem::exists(
      std::string(std::getenv("DCDIFF_CACHE_DIR")) +
      "/dcdiff_test_a_diff.bin"));
  EXPECT_TRUE(std::filesystem::exists(
      std::string(std::getenv("DCDIFF_CACHE_DIR")) +
      "/dcdiff_test_a_fmpp.bin"));
}

TEST_F(PipelineTest, CachedModelReproducesReconstruction) {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 0, 32);
  const jpeg::CoeffImage dropped = dropped_for(img);

  DCDiffModel m1(tiny_config("a"));
  m1.train_or_load();  // loads from the cache written above (same tag)
  const Image r1 = m1.reconstruct(dropped);

  DCDiffModel m2(tiny_config("a"));
  m2.train_or_load();
  const Image r2 = m2.reconstruct(dropped);

  ASSERT_EQ(r1.width(), r2.width());
  for (int c = 0; c < 3; ++c) {
    for (size_t i = 0; i < r1.plane(c).size(); ++i) {
      ASSERT_FLOAT_EQ(r1.plane(c)[i], r2.plane(c)[i]);
    }
  }
}

TEST_F(PipelineTest, ReconstructShapesAndRange) {
  DCDiffModel model(tiny_config("a"));
  model.train_or_load();
  const Image img = data::dataset_image(data::DatasetId::kInria, 0, 32);
  const Image rec = model.reconstruct(dropped_for(img));
  EXPECT_EQ(rec.width(), 32);
  EXPECT_EQ(rec.height(), 32);
  EXPECT_EQ(rec.channels(), 3);
  for (int c = 0; c < 3; ++c) {
    for (float v : rec.plane(c)) {
      ASSERT_GE(v, 0.0f);
      ASSERT_LE(v, 255.0f);
    }
  }
}

TEST_F(PipelineTest, ReconstructHandlesNonMultipleDimensions) {
  DCDiffModel model(tiny_config("a"));
  model.train_or_load();
  const Image img =
      crop(data::dataset_image(data::DatasetId::kSet5, 0, 64), 0, 0, 44, 36);
  const Image rec = model.reconstruct(dropped_for(img));
  EXPECT_EQ(rec.width(), 44);
  EXPECT_EQ(rec.height(), 36);
}

TEST_F(PipelineTest, ReconstructIsDeterministic) {
  DCDiffModel model(tiny_config("a"));
  model.train_or_load();
  const Image img = data::dataset_image(data::DatasetId::kKodak, 1, 32);
  const Image a = model.reconstruct(dropped_for(img));
  const Image b = model.reconstruct(dropped_for(img));
  for (int c = 0; c < 3; ++c) {
    for (size_t i = 0; i < a.plane(c).size(); ++i) {
      ASSERT_FLOAT_EQ(a.plane(c)[i], b.plane(c)[i]);
    }
  }
}

TEST_F(PipelineTest, FmppToggleChangesOutput) {
  DCDiffModel model(tiny_config("a"));
  model.train_or_load();
  const Image img = data::dataset_image(data::DatasetId::kUrban100, 0, 32);
  const jpeg::CoeffImage dropped = dropped_for(img);
  core::ReconstructOptions with_fmpp;  // defaults: use_fmpp = true
  core::ReconstructOptions without_fmpp;
  without_fmpp.use_fmpp = false;
  const Image with = model.reconstruct(dropped, with_fmpp);
  const Image without = model.reconstruct(dropped, without_fmpp);
  double diff = 0.0;
  for (int c = 0; c < 3; ++c) {
    for (size_t i = 0; i < with.plane(c).size(); ++i) {
      diff += std::abs(with.plane(c)[i] - without.plane(c)[i]);
    }
  }
  EXPECT_GT(diff, 1e-3);
}

TEST_F(PipelineTest, AutoencodePathWorks) {
  DCDiffModel model(tiny_config("a"));
  model.train_or_load();
  const Image img = data::dataset_image(data::DatasetId::kBSDS200, 0, 32);
  const Image rec = model.autoencode(img, dropped_for(img));
  EXPECT_EQ(rec.width(), img.width());
  EXPECT_EQ(rec.height(), img.height());
}

TEST_F(PipelineTest, SenderEncodeSavesBits) {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 2, 64);
  const SenderOutput out = sender_encode(img, 50);
  EXPECT_GT(out.standard_bits, 0u);
  EXPECT_LT(out.dropped_bits, out.standard_bits);
  EXPECT_FALSE(out.bytes.empty());
  // The bitstream must decode back to a valid coefficient image.
  const jpeg::CoeffImage ci = jpeg::decode_jfif(out.bytes);
  EXPECT_EQ(ci.width, 64);
}

TEST_F(PipelineTest, ReceiverReconstructFromBitstream) {
  DCDiffModel model(tiny_config("a"));
  model.train_or_load();
  const Image img = data::dataset_image(data::DatasetId::kSet14, 0, 32);
  const SenderOutput out = sender_encode(img, 50);
  const Image rec = receiver_reconstruct(out.bytes, model);
  EXPECT_EQ(rec.width(), 32);
  EXPECT_GT(metrics::psnr(img, rec), 8.0);  // sanity: not garbage
}

TEST_F(PipelineTest, CornerAnchoringFixesGlobalBrightness) {
  // Even a barely-trained model must land in the right brightness range
  // because reconstruction is re-anchored to the known corner DCs.
  DCDiffModel model(tiny_config("a"));
  model.train_or_load();
  Image bright(32, 32, ColorSpace::kRGB, 210.0f);
  const Image rec = model.reconstruct(dropped_for(bright));
  double mean = 0.0;
  for (float v : rec.plane(0)) mean += v;
  mean /= static_cast<double>(rec.plane(0).size());
  EXPECT_NEAR(mean, 210.0, 25.0);
}

// Byte-for-byte image equality (memcmp of every plane).
bool same_bytes(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.channels() != b.channels()) {
    return false;
  }
  for (int c = 0; c < a.channels(); ++c) {
    if (std::memcmp(a.plane(c).data(), b.plane(c).data(),
                    a.plane(c).size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

int trainable_params(const DCDiffModel& model) {
  int n = 0;
  for (const nn::Tensor& p : model.params()) n += p.requires_grad() ? 1 : 0;
  return n;
}

// A model is frozen from construction on; a train_* call unfreezes only for
// its own duration.
TEST_F(PipelineTest, ModelIsFrozenOutsideTraining) {
  DCDiffModel model(tiny_config("frozen"));
  EXPECT_FALSE(model.params().empty());
  EXPECT_EQ(trainable_params(model), 0);
  model.train_stage1();
  EXPECT_EQ(trainable_params(model), 0);
}

// Training drops the panels and plans built from the old weights: a model
// that reconstructs, trains and reconstructs again matches, planned and
// eager, a twin that only trained.
TEST_F(PipelineTest, TrainingAfterReconstructLeavesNoStalePanels) {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 3, 32);
  const jpeg::CoeffImage dropped = dropped_for(img);
  DCDiffModel model(tiny_config("fresh"));
  DCDiffModel twin(tiny_config("fresh"));
  for (const bool planned : {true, false}) {
    set_plan_enabled(planned);
    (void)model.reconstruct(dropped);
  }
  model.train_stage2();
  twin.train_stage2();
  for (const bool planned : {true, false}) {
    set_plan_enabled(planned);
    EXPECT_TRUE(same_bytes(model.reconstruct(dropped),
                           twin.reconstruct(dropped)))
        << "planned=" << planned;
  }
  set_plan_enabled(true);
}

// try_receiver_reconstruct, the non-throwing receiver: malformed bytes are
// the decoder's kDataLoss and its message names the segment that broke.
// Random init: no case depends on the weights.
TEST_F(PipelineTest, TryReceiverReconstructNamesTheBrokenSegment) {
  const DCDiffModel model(tiny_config("try"));
  const Image img = data::dataset_image(data::DatasetId::kKodak, 0, 32);
  std::vector<uint8_t> bytes = sender_encode(img, 50).bytes;
  // Mark the first quantization table 16-bit (Pq = 1): a baseline stream
  // has none.
  size_t at = 0;
  while (at + 4 < bytes.size() &&
         !(bytes[at] == 0xFF && bytes[at + 1] == 0xDB)) {
    ++at;
  }
  ASSERT_LT(at + 4, bytes.size());
  bytes[at + 4] |= 0x10;
  Image out;
  const Status st = try_receiver_reconstruct(bytes, model, &out);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_NE(st.message().find("DQT"), std::string::npos) << st.message();
  EXPECT_TRUE(out.empty());
}

TEST_F(PipelineTest, TryReceiverReconstructRefusesNullOutput) {
  const DCDiffModel model(tiny_config("try"));
  const Image img = data::dataset_image(data::DatasetId::kKodak, 0, 32);
  const std::vector<uint8_t> bytes = sender_encode(img, 50).bytes;
  EXPECT_EQ(try_receiver_reconstruct(bytes, model, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PipelineTest, TryReceiverReconstructEqualsReconstruct) {
  const DCDiffModel model(tiny_config("try"));
  const Image img = data::dataset_image(data::DatasetId::kKodak, 1, 32);
  const std::vector<uint8_t> bytes = sender_encode(img, 50).bytes;
  Image out;
  const Status st = try_receiver_reconstruct(bytes, model, &out);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_TRUE(same_bytes(out, model.reconstruct(jpeg::decode_jfif(bytes))));
}

TEST_F(PipelineTest, MldTrainingPathRuns) {
  // Covers the MLD branch of stage 2 (mld_start is reached with 6 steps at
  // 2/5 of the schedule).
  DCDiffConfig cfg = tiny_config("mld");
  cfg.use_mld = true;
  DCDiffModel model(cfg);
  EXPECT_NO_THROW(model.train_or_load());
}

TEST_F(PipelineTest, NoMldVariantRuns) {
  DCDiffConfig cfg = tiny_config("womld");
  cfg.use_mld = false;
  DCDiffModel model(cfg);
  EXPECT_NO_THROW(model.train_or_load());
}

}  // namespace
}  // namespace dcdiff::core

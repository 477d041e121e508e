#include "jpeg/codec.h"

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "metrics/metrics.h"

namespace dcdiff::jpeg {
namespace {

Image test_image(int size = 64) {
  return data::dataset_image(data::DatasetId::kKodak, 0, size);
}

TEST(Codec, ForwardTransformShapes444) {
  const CoeffImage ci = forward_transform(test_image(64), 50);
  ASSERT_EQ(ci.comps.size(), 3u);
  EXPECT_EQ(ci.comps[0].blocks_w, 8);
  EXPECT_EQ(ci.comps[0].blocks_h, 8);
  EXPECT_EQ(ci.comps[1].blocks_w, 8);
}

TEST(Codec, ForwardTransformShapes420) {
  const CoeffImage ci =
      forward_transform(test_image(64), 50, ChromaFormat::k420);
  ASSERT_EQ(ci.comps.size(), 3u);
  EXPECT_EQ(ci.comps[0].blocks_w, 8);
  EXPECT_EQ(ci.comps[1].blocks_w, 4);
  EXPECT_EQ(ci.comps[1].blocks_h, 4);
}

TEST(Codec, GrayImagesProduceOneComponent) {
  const Image gray = to_gray(test_image(32));
  const CoeffImage ci = forward_transform(gray, 50);
  EXPECT_EQ(ci.comps.size(), 1u);
}

TEST(Codec, GrayIgnoresChromaFormatRequest) {
  // 4:2:0 only applies to chroma; grayscale must fall back to the 8x8 grid.
  const Image gray = to_gray(test_image(32));
  const CoeffImage ci = forward_transform(gray, 50, ChromaFormat::k420);
  EXPECT_EQ(ci.comps.size(), 1u);
  EXPECT_EQ(ci.comps[0].blocks_w, 4);
  const Image back = inverse_transform(ci);
  EXPECT_EQ(back.width(), 32);
}

TEST(Codec, NonMultipleDimensionsArePadded) {
  const Image img = crop(test_image(64), 0, 0, 60, 52);
  const CoeffImage ci = forward_transform(img, 50);
  EXPECT_EQ(ci.comps[0].blocks_w, 8);   // ceil(60/8)
  EXPECT_EQ(ci.comps[0].blocks_h, 7);   // ceil(52/8)
  const Image back = inverse_transform(ci);
  EXPECT_EQ(back.width(), 60);
  EXPECT_EQ(back.height(), 52);
}

class RoundTripQuality : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripQuality, PsnrIncreasesWithQuality) {
  const Image img = test_image(64);
  const int q = GetParam();
  const double p_low = metrics::psnr(img, jpeg_roundtrip(img, q));
  const double p_high = metrics::psnr(img, jpeg_roundtrip(img, q + 20));
  EXPECT_GT(p_high, p_low - 0.2) << "q=" << q;
  EXPECT_GT(p_low, 20.0);
}

INSTANTIATE_TEST_SUITE_P(Qualities, RoundTripQuality,
                         ::testing::Values(20, 40, 50, 60, 75));

TEST(Codec, HighQualityRoundTripIsAccurate) {
  const Image img = test_image(64);
  EXPECT_GT(metrics::psnr(img, jpeg_roundtrip(img, 95)), 35.0);
}

TEST(Codec, JfifRoundTripPreservesCoefficients444) {
  const CoeffImage ci = forward_transform(test_image(64), 50);
  const auto bytes = encode_jfif(ci);
  const CoeffImage back = decode_jfif(bytes);
  ASSERT_EQ(back.comps.size(), ci.comps.size());
  EXPECT_EQ(back.width, ci.width);
  EXPECT_EQ(back.height, ci.height);
  for (size_t c = 0; c < ci.comps.size(); ++c) {
    ASSERT_EQ(back.comps[c].blocks.size(), ci.comps[c].blocks.size());
    for (size_t b = 0; b < ci.comps[c].blocks.size(); ++b) {
      for (int k = 0; k < kBlockSamples; ++k) {
        ASSERT_EQ(back.comps[c].blocks[b][k], ci.comps[c].blocks[b][k])
            << "comp " << c << " block " << b << " coef " << k;
      }
    }
  }
}

TEST(Codec, JfifRoundTripPreservesCoefficients420) {
  const CoeffImage ci =
      forward_transform(test_image(64), 50, ChromaFormat::k420);
  const CoeffImage back = decode_jfif(encode_jfif(ci));
  for (size_t c = 0; c < ci.comps.size(); ++c) {
    for (size_t b = 0; b < ci.comps[c].blocks.size(); ++b) {
      for (int k = 0; k < kBlockSamples; ++k) {
        ASSERT_EQ(back.comps[c].blocks[b][k], ci.comps[c].blocks[b][k]);
      }
    }
  }
}

TEST(Codec, JfifRoundTripPreservesQuantTables) {
  const CoeffImage ci = forward_transform(test_image(32), 35);
  const CoeffImage back = decode_jfif(encode_jfif(ci));
  for (int i = 0; i < kBlockSamples; ++i) {
    EXPECT_EQ(back.qluma.q[i], ci.qluma.q[i]);
    EXPECT_EQ(back.qchroma.q[i], ci.qchroma.q[i]);
  }
}

TEST(Codec, JfifGrayRoundTrip) {
  const Image gray = to_gray(test_image(48));
  const CoeffImage ci = forward_transform(gray, 50);
  const CoeffImage back = decode_jfif(encode_jfif(ci));
  ASSERT_EQ(back.comps.size(), 1u);
  for (size_t b = 0; b < ci.comps[0].blocks.size(); ++b) {
    for (int k = 0; k < kBlockSamples; ++k) {
      ASSERT_EQ(back.comps[0].blocks[b][k], ci.comps[0].blocks[b][k]);
    }
  }
}

TEST(Codec, FileStartsWithSOIEndsWithEOI) {
  const auto bytes = encode_jfif(forward_transform(test_image(32), 50));
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[1], 0xD8);
  EXPECT_EQ(bytes[bytes.size() - 2], 0xFF);
  EXPECT_EQ(bytes.back(), 0xD9);
}

TEST(Codec, DecodeRejectsGarbage) {
  EXPECT_THROW(decode_jfif({0x00, 0x01, 0x02}), std::runtime_error);
}

TEST(Codec, EntropyBitCountMatchesScanSize) {
  const CoeffImage ci = forward_transform(test_image(64), 50);
  const size_t bits = entropy_bit_count(ci);
  EXPECT_GT(bits, 0u);
  // Whole file must be larger than the entropy payload alone.
  EXPECT_GT(encode_jfif(ci).size() * 8, bits);
}

TEST(Codec, EntropyBitCountRejectsSymbolsTheTablesCannotCode) {
  // The Annex-K tables code DC categories up to 11 and AC sizes up to 10:
  // counting a coefficient beyond them throws, exactly as encoding it does.
  CoeffImage ci = forward_transform(to_gray(test_image(16)), 50);
  ci.comps[0].blocks[1][0] = 4000;  // DC diff of category 12
  EXPECT_THROW(encode_jfif(ci), std::runtime_error);
  EXPECT_THROW(entropy_bit_count(ci), std::runtime_error);
  ci.comps[0].blocks[1][0] = 0;
  ci.comps[0].blocks[2][1] = 1500;  // AC size 11
  EXPECT_THROW(encode_jfif(ci), std::runtime_error);
  EXPECT_THROW(entropy_bit_count(ci), std::runtime_error);
}

TEST(Codec, LowerQualityMeansFewerBits) {
  const Image img = test_image(64);
  const size_t hi = entropy_bit_count(forward_transform(img, 85));
  const size_t lo = entropy_bit_count(forward_transform(img, 25));
  EXPECT_LT(lo, hi);
}

TEST(Codec, OptimizedTablesNeverWorseThanStandard) {
  for (int i = 0; i < 3; ++i) {
    const Image img = data::dataset_image(data::DatasetId::kBSDS200, i, 64);
    const jpeg::CoeffImage ci = forward_transform(img, 50);
    const size_t std_bits = entropy_bit_count(ci);
    const size_t opt_bits = entropy_bit_count_optimized(ci);
    EXPECT_LE(opt_bits, std_bits) << "image " << i;
    EXPECT_GT(opt_bits, 0u);
  }
}

TEST(Codec, OptimizedTablesWorkOnDroppedStreams) {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 0, 64);
  jpeg::CoeffImage ci = forward_transform(img, 50);
  for (auto& comp : ci.comps) {
    for (auto& block : comp.blocks) block[0] = 0;
  }
  const size_t bits = entropy_bit_count_optimized(ci);
  EXPECT_GT(bits, 0u);
  EXPECT_LE(bits, entropy_bit_count(ci));
}

TEST(Codec, TildeImageBlockMeansAreNearZero) {
  CoeffImage ci = forward_transform(test_image(64), 50);
  // Zero all DC: every 8x8 block of tilde must average ~0.
  for (auto& comp : ci.comps) {
    for (auto& block : comp.blocks) block[0] = 0;
  }
  const Image tilde = tilde_image(ci);
  for (int by = 0; by < 8; ++by) {
    for (int bx = 0; bx < 8; ++bx) {
      double mean = 0.0;
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          mean += tilde.at(0, by * 8 + y, bx * 8 + x);
        }
      }
      EXPECT_NEAR(mean / 64.0, 0.0, 0.05) << by << "," << bx;
    }
  }
}

}  // namespace
}  // namespace dcdiff::jpeg

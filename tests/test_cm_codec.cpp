// Tests for the context-mixing entropy coder (src/codec) and its JFIF
// integration: range coder symmetry, cm stream round trips across chroma
// formats, auto-detection, corruption rejection, the rate advantage over
// the Annex-K Huffman baseline, and the container oracle: one image in all
// four containers decodes identically, with the encoders' bytes pinned.
#include "codec/crc32.h"
#include "codec/dctmodel.h"
#include "codec/predictor.h"
#include "codec/rangecoder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "data/datasets.h"
#include "jpeg/codec.h"
#include "jpeg/dcdrop.h"
#include "jpeg/progressive.h"
#include "jpeg_oracle.h"
#include "support/status.h"

namespace dcdiff {
namespace {

Image test_image(int size = 64) {
  return data::dataset_image(data::DatasetId::kKodak, 0, size);
}

// ----- Range coder -----

TEST(RangeCoder, RoundTripsRandomBitsAtRandomProbabilities) {
  std::mt19937 rng(7);
  std::vector<int> bits;
  std::vector<int> probs;
  for (int i = 0; i < 20000; ++i) {
    const int p = 1 + static_cast<int>(rng() % 4095);
    probs.push_back(p);
    bits.push_back(static_cast<int>(rng() % 4096) < p ? 1 : 0);
  }
  codec::RangeEncoder enc;
  for (size_t i = 0; i < bits.size(); ++i) {
    enc.encode(bits[i], static_cast<uint16_t>(probs[i]));
  }
  const std::vector<uint8_t> data = enc.finish();
  codec::RangeDecoder dec(data.data(), data.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(dec.decode(static_cast<uint16_t>(probs[i])), bits[i])
        << "bit " << i;
  }
}

TEST(RangeCoder, SkewedStreamsCompress) {
  // 10000 zero bits coded at p(1)=1/4096 must cost far less than a byte
  // per bit -- the basic sanity check that the arithmetic coder is really
  // fractional-bit.
  codec::RangeEncoder enc;
  for (int i = 0; i < 10000; ++i) enc.encode(0, 1);
  const auto data = enc.finish();
  EXPECT_LT(data.size(), 64u);
  codec::RangeDecoder dec(data.data(), data.size());
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(dec.decode(1), 0);
}

TEST(Predictor, SquashStretchInverses) {
  for (int p = 1; p < 4096; p += 17) {
    const int s = codec::stretch(p);
    EXPECT_NEAR(codec::squash(s), p, 32) << "p=" << p;
  }
}

TEST(Predictor, StateMapLearnsBias) {
  codec::StateMap sm(1);
  for (int i = 0; i < 200; ++i) {
    sm.predict(0);
    sm.update(1);
  }
  EXPECT_GT(sm.predict(0), 3500);
}

TEST(Crc32, MatchesKnownVector) {
  // CRC-32 ("123456789") == 0xCBF43926 (the canonical check value).
  const uint8_t msg[9] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(codec::crc32(msg, 9), 0xCBF43926u);
}

// ----- JFIF cm streams -----

using jpeg::ChromaFormat;
using jpeg::CoeffImage;
using jpeg::EntropyKind;

// Same image: dimensions, chroma format, the quant table of every component
// and every coefficient. `quality` is not compared (no decoder can recover
// it), nor is `restart_interval` (progressive files carry no DRI).
void expect_identical(const CoeffImage& a, const CoeffImage& b) {
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.format, b.format);
  ASSERT_EQ(a.comps.size(), b.comps.size());
  for (size_t c = 0; c < a.comps.size(); ++c) {
    EXPECT_EQ(a.table_for(static_cast<int>(c)).q,
              b.table_for(static_cast<int>(c)).q)
        << "comp " << c;
    ASSERT_EQ(a.comps[c].blocks_w, b.comps[c].blocks_w);
    ASSERT_EQ(a.comps[c].blocks_h, b.comps[c].blocks_h);
    ASSERT_EQ(a.comps[c].blocks.size(), b.comps[c].blocks.size());
    for (size_t i = 0; i < a.comps[c].blocks.size(); ++i) {
      for (int k = 0; k < jpeg::kBlockSamples; ++k) {
        ASSERT_EQ(a.comps[c].blocks[i][k], b.comps[c].blocks[i][k])
            << "comp " << c << " block " << i << " k " << k;
      }
    }
  }
}

TEST(CmCodec, RoundTripsCoefficients444) {
  const CoeffImage ci = jpeg::forward_transform(test_image(64), 50);
  const auto bytes = jpeg::encode_jfif(ci, EntropyKind::kCm);
  EXPECT_EQ(jpeg::detect_entropy_kind(bytes), EntropyKind::kCm);
  const CoeffImage back = jpeg::decode_jfif(bytes);
  expect_identical(ci, back);
}

TEST(CmCodec, RoundTripsCoefficients420) {
  const CoeffImage ci =
      jpeg::forward_transform(test_image(64), 50, ChromaFormat::k420);
  const auto bytes = jpeg::encode_jfif(ci, EntropyKind::kCm);
  const CoeffImage back = jpeg::decode_jfif(bytes);
  expect_identical(ci, back);
  EXPECT_EQ(back.format, ChromaFormat::k420);
}

TEST(CmCodec, RoundTripsGray) {
  const CoeffImage ci = jpeg::forward_transform(to_gray(test_image(48)), 60);
  const auto bytes = jpeg::encode_jfif(ci, EntropyKind::kCm);
  const CoeffImage back = jpeg::decode_jfif(bytes);
  expect_identical(ci, back);
}

TEST(CmCodec, RoundTripsDcDroppedStream) {
  // The paper's sender path: DC coefficients zeroed, AC-only stream. The cm
  // coder must carry it losslessly like any other coefficient field.
  CoeffImage ci = jpeg::forward_transform(test_image(64), 50);
  jpeg::drop_dc(ci);
  const auto bytes = jpeg::encode_jfif(ci, EntropyKind::kCm);
  const CoeffImage back = jpeg::decode_jfif(bytes);
  expect_identical(ci, back);
}

TEST(CmCodec, HuffmanFilesDetectAsHuffman) {
  const CoeffImage ci = jpeg::forward_transform(test_image(32), 50);
  const auto bytes = jpeg::encode_jfif(ci, EntropyKind::kHuffman);
  EXPECT_EQ(jpeg::detect_entropy_kind(bytes), EntropyKind::kHuffman);
  EXPECT_EQ(jpeg::detect_entropy_kind({}), EntropyKind::kHuffman);
}

TEST(CmCodec, TruncatedPayloadIsRejectedAsStatus) {
  const CoeffImage ci = jpeg::forward_transform(test_image(64), 50);
  auto bytes = jpeg::encode_jfif(ci, EntropyKind::kCm);
  bytes.resize(bytes.size() - bytes.size() / 4);
  CoeffImage out;
  const Status st = jpeg::try_decode_jfif(bytes, &out);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(CmCodec, CorruptedPayloadFailsCrc) {
  const CoeffImage ci = jpeg::forward_transform(test_image(64), 50);
  auto bytes = jpeg::encode_jfif(ci, EntropyKind::kCm);
  bytes[bytes.size() - 8] ^= 0x40;  // flip a bit inside the cm payload
  CoeffImage out;
  const Status st = jpeg::try_decode_jfif(bytes, &out);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("CRC"), std::string::npos) << st.message();
}

TEST(CmCodec, RestartIntervalSurvivesCmContainer) {
  CoeffImage ci = jpeg::forward_transform(test_image(64), 50);
  ci.restart_interval = 4;
  const auto bytes = jpeg::encode_jfif(ci, EntropyKind::kCm);
  const CoeffImage back = jpeg::decode_jfif(bytes);
  EXPECT_EQ(back.restart_interval, 4);
}

// ----- Progressive (SOF2) cm streams -----

TEST(CmProgressive, RoundTripsCoefficients) {
  const CoeffImage ci = jpeg::forward_transform(test_image(64), 50);
  const auto bytes = jpeg::encode_progressive(ci, jpeg::ProgressiveConfig(),
                                              EntropyKind::kCm);
  EXPECT_TRUE(jpeg::is_progressive(bytes));
  EXPECT_EQ(jpeg::detect_entropy_kind(bytes), EntropyKind::kCm);
  const CoeffImage back = jpeg::decode_progressive(bytes);
  expect_identical(ci, back);
}

TEST(CmProgressive, RoundTrips420) {
  const CoeffImage ci =
      jpeg::forward_transform(test_image(64), 50, ChromaFormat::k420);
  const auto bytes = jpeg::encode_progressive(ci, jpeg::ProgressiveConfig(),
                                              EntropyKind::kCm);
  const CoeffImage back = jpeg::decode_progressive(bytes);
  expect_identical(ci, back);
}

TEST(CmProgressive, PreviewDecodesDcScanOnly) {
  const CoeffImage ci = jpeg::forward_transform(test_image(64), 50);
  const auto bytes = jpeg::encode_progressive(ci, jpeg::ProgressiveConfig(),
                                              EntropyKind::kCm);
  const CoeffImage prev = jpeg::decode_progressive_preview(bytes);
  ASSERT_EQ(prev.comps.size(), ci.comps.size());
  for (size_t c = 0; c < ci.comps.size(); ++c) {
    for (size_t i = 0; i < ci.comps[c].blocks.size(); ++i) {
      ASSERT_EQ(prev.comps[c].blocks[i][0], ci.comps[c].blocks[i][0]);
      for (int k = 1; k < jpeg::kBlockSamples; ++k) {
        ASSERT_EQ(prev.comps[c].blocks[i][jpeg::zigzag_order()[k]], 0);
      }
    }
  }
}

TEST(CmProgressive, TruncatedScanIsRejectedAsStatus) {
  const CoeffImage ci = jpeg::forward_transform(test_image(64), 50);
  auto bytes = jpeg::encode_progressive(ci, jpeg::ProgressiveConfig(),
                                        EntropyKind::kCm);
  bytes.resize(bytes.size() / 2);
  CoeffImage out;
  const Status st = jpeg::try_decode_progressive(bytes, &out);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

// ----- One image, four containers -----

// The differential oracle: the same coefficients written by encode_jfif and
// encode_progressive, each with Huffman and cm, decode to the same image
// whatever the container.
TEST(Containers, FourEncodingsDecodeIdentically) {
  for (const CoeffImage& ci : jpeg::oracle::images()) {
    const auto files = jpeg::oracle::files(ci);
    std::vector<CoeffImage> decoded;
    for (size_t k = 0; k < files.size(); ++k) {
      decoded.push_back(jpeg::oracle::progressive_file(k)
                            ? jpeg::decode_progressive(files[k])
                            : jpeg::decode_jfif(files[k]));
    }
    expect_identical(ci, decoded[0]);
    for (size_t k = 1; k < decoded.size(); ++k) {
      SCOPED_TRACE(k);
      expect_identical(decoded[0], decoded[k]);
      EXPECT_EQ(decoded[0].qchroma.q, decoded[k].qchroma.q);
    }
    EXPECT_EQ(decoded[0].restart_interval, 2);
    EXPECT_EQ(decoded[1].restart_interval, 2);
  }
}

// The encoders' bytes, pinned: {size, crc32} of the oracle's four files per
// image and the three entropy bit counts of the same coefficients. A change
// here is a format change, and perfbench's bpp_huffman / bpp_cm are file
// sizes.
TEST(Containers, EncoderOutputIsPinned) {
  struct Pin {
    size_t size;
    uint32_t crc;
  };
  const Pin pins[3][4] = {
      {{454, 0x96D65E3Eu}, {238, 0x5701CE80u}, {436, 0xA54FC9D9u},
       {256, 0xE28FA511u}},
      {{856, 0xF0ADB439u}, {424, 0xC3B35697u}, {884, 0xF5088549u},
       {532, 0x24E2D7F9u}},
      {{772, 0x42371429u}, {356, 0xF64282EAu}, {812, 0x7D464992u},
       {459, 0x5F0A3634u}}};
  // entropy_bit_count, entropy_bit_count_optimized, entropy_bit_count_cm.
  const size_t bits[3][3] = {
      {811, 751, 808}, {1677, 1559, 1664}, {1110, 1021, 1120}};
  const auto images = jpeg::oracle::images();
  ASSERT_EQ(images.size(), 3u);
  for (size_t i = 0; i < images.size(); ++i) {
    const auto files = jpeg::oracle::files(images[i]);
    for (size_t k = 0; k < files.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "image " << i << " file " << k);
      EXPECT_EQ(files[k].size(), pins[i][k].size);
      EXPECT_EQ(codec::crc32(files[k].data(), files[k].size()), pins[i][k].crc);
    }
    SCOPED_TRACE(testing::Message() << "image " << i);
    EXPECT_EQ(jpeg::entropy_bit_count(images[i]), bits[i][0]);
    EXPECT_EQ(jpeg::entropy_bit_count_optimized(images[i]), bits[i][1]);
    EXPECT_EQ(jpeg::entropy_bit_count_cm(images[i]), bits[i][2]);
  }
}

TEST(CmCodec, BeatsHuffmanOnEntropyBits) {
  // The reason the subsystem exists: adaptive context mixing must spend
  // fewer scan bits than the fixed Annex-K tables on real image content.
  const CoeffImage ci = jpeg::forward_transform(test_image(64), 50);
  const size_t huff = jpeg::entropy_bit_count(ci);
  const size_t cm = jpeg::entropy_bit_count_cm(ci);
  EXPECT_LT(cm, huff);
}

}  // namespace
}  // namespace dcdiff

#include "jpeg/dct.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/rng.h"

namespace dcdiff::jpeg {
namespace {

PixelBlock random_block(Rng& rng, float lo = -128.0f, float hi = 127.0f) {
  PixelBlock b;
  for (float& v : b) v = rng.uniform(lo, hi);
  return b;
}

TEST(Dct, ConstantBlockHasOnlyDC) {
  PixelBlock px;
  px.fill(10.0f);
  CoefBlock cf;
  fdct8x8(px, cf);
  // DC of a constant block m is 8*m under JPEG normalisation.
  EXPECT_NEAR(cf[0], 80.0f, 1e-3);
  for (int i = 1; i < kBlockSamples; ++i) EXPECT_NEAR(cf[i], 0.0f, 1e-3);
}

TEST(Dct, DCValueIsEightTimesMean) {
  Rng rng(3);
  const PixelBlock px = random_block(rng);
  CoefBlock cf;
  fdct8x8(px, cf);
  double mean = 0.0;
  for (float v : px) mean += v;
  mean /= kBlockSamples;
  EXPECT_NEAR(cf[0], 8.0 * mean, 1e-2);
}

TEST(Dct, ZeroingDCShiftsByMeanOnly) {
  // The DC-drop premise: removing DC leaves within-block differences intact.
  Rng rng(5);
  const PixelBlock px = random_block(rng);
  CoefBlock cf;
  fdct8x8(px, cf);
  const float mean = cf[0] / 8.0f;
  cf[0] = 0.0f;
  PixelBlock back;
  idct8x8(cf, back);
  for (int i = 0; i < kBlockSamples; ++i) {
    EXPECT_NEAR(back[i], px[i] - mean, 1e-3);
  }
}

class DctRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DctRoundTrip, InverseRecoversInput) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const PixelBlock px = random_block(rng);
  CoefBlock cf;
  PixelBlock back;
  fdct8x8(px, cf);
  idct8x8(cf, back);
  for (int i = 0; i < kBlockSamples; ++i) EXPECT_NEAR(back[i], px[i], 1e-3);
}

TEST_P(DctRoundTrip, ParsevalEnergyPreserved) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  const PixelBlock px = random_block(rng);
  CoefBlock cf;
  fdct8x8(px, cf);
  double e_pix = 0.0, e_coef = 0.0;
  for (float v : px) e_pix += static_cast<double>(v) * v;
  for (float v : cf) e_coef += static_cast<double>(v) * v;
  EXPECT_NEAR(e_coef, e_pix, 1e-2 * std::max(1.0, e_pix));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DctRoundTrip, ::testing::Range(0, 16));

TEST(Dct, Linearity) {
  Rng rng(9);
  const PixelBlock a = random_block(rng);
  const PixelBlock b = random_block(rng);
  PixelBlock sum;
  for (int i = 0; i < kBlockSamples; ++i) sum[i] = a[i] + 2.0f * b[i];
  CoefBlock ca, cb, cs;
  fdct8x8(a, ca);
  fdct8x8(b, cb);
  fdct8x8(sum, cs);
  for (int i = 0; i < kBlockSamples; ++i) {
    EXPECT_NEAR(cs[i], ca[i] + 2.0f * cb[i], 1e-2);
  }
}

TEST(Dct, SingleBasisFunctionRoundTrip) {
  // Each frequency basis vector survives the round trip exactly.
  for (int k = 0; k < kBlockSamples; k += 9) {
    CoefBlock cf{};
    cf[k] = 100.0f;
    PixelBlock px;
    idct8x8(cf, px);
    CoefBlock back;
    fdct8x8(px, back);
    for (int i = 0; i < kBlockSamples; ++i) {
      EXPECT_NEAR(back[i], cf[i], 1e-3) << "basis " << k << " coef " << i;
    }
  }
}

}  // namespace
}  // namespace dcdiff::jpeg

// The blocked GEMM compute path: kernel vs reference over a shape sweep,
// gemm() / gemm_rows() / PackedA::run() bit for bit across the block edges
// of their one loop, im2col/col2im adjointness, the batched conv forward bit
// for bit against the per-image im2col route, conv2d/linear forward and
// gradients against double-precision references, per-row routing of the
// batch-row product, gradient checks through the GEMM path, and workspace
// reuse from concurrent pool workers.
#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "grad_check.h"
#include "nn/ops.h"
#include "nn/rng.h"
#include "nn/threadpool.h"
#include "nn/workspace.h"

namespace dcdiff::nn {
namespace {

using dcdiff::testing_util::check_gradient;

std::vector<float> random_vec(size_t n, Rng& rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.normal(0.0f, scale);
  return v;
}

Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  return Tensor::from_data(shape, random_vec(shape_numel(shape), rng));
}

// Double-precision reference: C = A_op * B_op + beta * C.
void reference_gemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                    int64_t k, const std::vector<float>& a, int64_t lda,
                    const std::vector<float>& b, int64_t ldb, float beta,
                    std::vector<float>& c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[static_cast<size_t>(p * lda + i)]
                                 : a[static_cast<size_t>(i * lda + p)];
        const float bv = trans_b ? b[static_cast<size_t>(j * ldb + p)]
                                 : b[static_cast<size_t>(p * ldb + j)];
        acc += static_cast<double>(av) * bv;
      }
      float& out = c[static_cast<size_t>(i * ldc + j)];
      out = static_cast<float>(acc + (beta == 0.0f ? 0.0 : beta * out));
    }
  }
}

void expect_close(const std::vector<float>& got,
                  const std::vector<float>& want, float rel_tol = 1e-4f) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const float scale = std::max(1.0f, std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], rel_tol * scale) << "index " << i;
  }
}

void run_gemm_case(bool trans_a, bool trans_b, int64_t m, int64_t n,
                   int64_t k, float beta, uint64_t seed) {
  Rng rng(seed);
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  std::vector<float> a = random_vec(static_cast<size_t>(trans_a ? k * m : m * k), rng);
  std::vector<float> b = random_vec(static_cast<size_t>(trans_b ? n * k : k * n), rng);
  std::vector<float> c0 = random_vec(static_cast<size_t>(m * n), rng);
  std::vector<float> got = c0;
  std::vector<float> want = c0;
  gemm(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb, beta,
       got.data(), n);
  reference_gemm(trans_a, trans_b, m, n, k, a, lda, b, ldb, beta, want, n);
  expect_close(got, want);
}

TEST(Gemm, ShapeSweepAgainstReference) {
  // Edge shapes around the 6x16 register tile, the KC=256 K-block, and the
  // NC=480 N-block, plus degenerate M/N/K = 1.
  const int64_t ms[] = {1, 2, 5, 6, 7, 13, 33};
  const int64_t ns[] = {1, 15, 16, 17, 64};
  const int64_t ks[] = {1, 7, 64, 300};
  uint64_t seed = 1;
  for (int64_t m : ms) {
    for (int64_t n : ns) {
      for (int64_t k : ks) {
        run_gemm_case(false, false, m, n, k, 0.0f, ++seed);
      }
    }
  }
}

// 37 x 29 x 111 = 119k multiply-adds: every layout takes the blocked route,
// including pack_a's transposed-A path (the conv input gradient's).
TEST(Gemm, TransposedOperandsAndAccumulate) {
  uint64_t seed = 100;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (float beta : {0.0f, 1.0f}) {
        run_gemm_case(ta, tb, 37, 29, 111, beta, ++seed);
      }
    }
  }
}

TEST(Gemm, LargeEnoughToEngageAllBlockingLevels) {
  // m > several MR panels, n > NC, k > KC: exercises the jc/pc loops and
  // the beta=1 continuation across K-blocks.
  run_gemm_case(false, false, 64, 600, 520, 0.0f, 7);
  run_gemm_case(false, true, 40, 500, 300, 1.0f, 8);
}

// One case of EntryPointsBitEqualAcrossBlockEdges: gemm_rows(),
// PackedA::run() (trans_b = false only) and a chain of one gemm() per
// 256-deep K-block, each byte for byte against gemm(). The operands are the
// leading elements of a, b and c0.
void expect_entry_points_bit_equal(bool ta, bool tb, int64_t m, int64_t n,
                                   int64_t k, float beta,
                                   const std::vector<float>& a,
                                   const std::vector<float>& b,
                                   const std::vector<float>& c0) {
  const int64_t lda = ta ? m : k;
  const int64_t ldb = tb ? k : n;
  const std::vector<float> init(c0.begin(), c0.begin() + m * n);
  std::vector<float> want = init;
  gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, beta, want.data(), n);
  const auto expect_bits = [&](const std::vector<float>& got,
                               const char* what) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             want.size() * sizeof(float)))
        << what << " m=" << m << " n=" << n << " k=" << k
        << " trans_a=" << ta << " trans_b=" << tb << " beta=" << beta;
  };
  std::vector<float> got = init;
  gemm_rows(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, beta, got.data(),
            n);
  expect_bits(got, "gemm_rows");
  if (!tb) {
    got = init;
    PackedA(ta, m, k, a.data(), lda)
        .run(n, b.data(), ldb, beta, got.data(), n);
    expect_bits(got, "PackedA::run");
  }
  got = init;
  for (int64_t pc = 0; pc < k; pc += 256) {
    gemm(ta, tb, m, n, std::min<int64_t>(256, k - pc),
         a.data() + (ta ? pc * lda : pc), lda,
         b.data() + (tb ? pc : pc * ldb), ldb, pc == 0 ? beta : 1.0f,
         got.data(), n);
  }
  expect_bits(got, "K-block chain");
}

// gemm(), gemm_rows() and PackedA::run() run one blocked loop, so on equal
// operands they agree byte for byte. That loop adds each C element's
// K-blocks in ascending order, those past the first with beta = 1, so a
// chain of one gemm() per 256-deep K-block gives the same bytes. k, n and m
// straddle the KC = 256 K-block, the NC = 480 N-block and the MR = 6 row
// panel, and every whole product is above the 4096 multiply-add bound. A
// chained one-deep tail (k = 257) of a small product takes gemm_naive(),
// whose one product and beta = 1 update round as the micro-kernel's do.
TEST(Gemm, EntryPointsBitEqualAcrossBlockEdges) {
  Rng rng(9);
  const std::vector<float> a = random_vec(64 * 600, rng);
  const std::vector<float> b = random_vec(600 * 1000, rng);
  const std::vector<float> c0 = random_vec(64 * 1000, rng);
  for (const int64_t k : {255, 256, 257, 600}) {
    for (const int64_t n : {479, 480, 481, 1000}) {
      for (const int64_t m : {1, 6, 7, 64}) {
        for (const bool ta : {false, true}) {
          for (const bool tb : {false, true}) {
            for (const float beta : {0.0f, 1.0f}) {
              expect_entry_points_bit_equal(ta, tb, m, n, k, beta, a, b, c0);
            }
          }
        }
      }
    }
  }
}

// gemm_rows(): a row's bits never depend on how many rows share the call,
// so batch-mates cannot change an image's pixels. The (n, k) pairs straddle
// the small-problem threshold (4096 multiply-adds per row), so gemm()'s
// whole-call m * n * k route would send the same row naive at m = 1 and
// blocked at m = 32. Linear layout (x rows times w^T) and plain layout.
TEST(Gemm, RowBitsDoNotDependOnRowCount) {
  const std::pair<int64_t, int64_t> nks[] = {
      {32, 64}, {64, 64}, {16, 255}, {33, 124}, {65, 64}, {32, 200}};
  for (const auto& [n, k] : nks) {
    for (const bool trans_b : {true, false}) {
      Rng rng(static_cast<uint64_t>(n * 1000 + k));
      const std::vector<float> a = random_vec(static_cast<size_t>(32 * k), rng);
      const std::vector<float> b = random_vec(static_cast<size_t>(n * k), rng);
      const int64_t ldb = trans_b ? k : n;
      std::vector<float> one(static_cast<size_t>(n));
      gemm_rows(false, trans_b, 1, n, k, a.data(), k, b.data(), ldb, 0.0f,
                one.data(), n);
      for (const int64_t m : {2, 8, 32}) {
        std::vector<float> many(static_cast<size_t>(m * n));
        gemm_rows(false, trans_b, m, n, k, a.data(), k, b.data(), ldb, 0.0f,
                  many.data(), n);
        EXPECT_EQ(std::memcmp(one.data(), many.data(),
                              one.size() * sizeof(float)),
                  0)
            << "row 0 differs at m=" << m << " n=" << n << " k=" << k
            << " trans_b=" << trans_b;
      }
    }
  }
}

// ---------- im2col / col2im ----------

TEST(Im2col, MatchesDirectPatchExtraction) {
  const int c = 3, h = 7, w = 5, kh = 3, kw = 3, stride = 2, pad = 1;
  const int ho = (h + 2 * pad - kh) / stride + 1;
  const int wo = (w + 2 * pad - kw) / stride + 1;
  Rng rng(11);
  std::vector<float> x = random_vec(static_cast<size_t>(c) * h * w, rng);
  std::vector<float> col(static_cast<size_t>(c) * kh * kw * ho * wo, -42.0f);
  im2col(x.data(), c, h, w, kh, kw, stride, pad, ho, wo, col.data());
  for (int ci = 0; ci < c; ++ci) {
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const int r = (ci * kh + ky) * kw + kx;
        for (int oy = 0; oy < ho; ++oy) {
          for (int ox = 0; ox < wo; ++ox) {
            const int iy = oy * stride - pad + ky;
            const int ix = ox * stride - pad + kx;
            const float want =
                (iy < 0 || iy >= h || ix < 0 || ix >= w)
                    ? 0.0f
                    : x[static_cast<size_t>((ci * h + iy) * w + ix)];
            EXPECT_FLOAT_EQ(
                col[static_cast<size_t>((r * ho + oy) * wo + ox)], want)
                << "r=" << r << " oy=" << oy << " ox=" << ox;
          }
        }
      }
    }
  }
}

TEST(Im2col, Col2imRoundTripScalesByPatchCoverage) {
  // col2im(im2col(x)) multiplies each input pixel by the number of patches
  // that read it; verify against a directly-counted coverage map.
  constexpr std::array<std::pair<int, int>, 4> configs{
      {{1, 1}, {2, 1}, {1, 0}, {3, 2}}};
  for (const auto& [stride, pad] : configs) {
    const int c = 2, h = 6, w = 9, kh = 3, kw = 3;
    const int ho = (h + 2 * pad - kh) / stride + 1;
    const int wo = (w + 2 * pad - kw) / stride + 1;
    if (ho <= 0 || wo <= 0) continue;
    Rng rng(13);
    std::vector<float> x = random_vec(static_cast<size_t>(c) * h * w, rng);
    std::vector<float> col(static_cast<size_t>(c) * kh * kw * ho * wo);
    im2col(x.data(), c, h, w, kh, kw, stride, pad, ho, wo, col.data());
    std::vector<float> back(x.size(), 0.0f);
    col2im_add(col.data(), c, h, w, kh, kw, stride, pad, ho, wo, back.data());
    std::vector<int> coverage(static_cast<size_t>(h) * w, 0);
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        for (int oy = 0; oy < ho; ++oy) {
          for (int ox = 0; ox < wo; ++ox) {
            const int iy = oy * stride - pad + ky;
            const int ix = ox * stride - pad + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
              ++coverage[static_cast<size_t>(iy * w + ix)];
            }
          }
        }
      }
    }
    for (int ci = 0; ci < c; ++ci) {
      for (int i = 0; i < h * w; ++i) {
        const size_t idx = static_cast<size_t>(ci * h * w + i);
        EXPECT_NEAR(back[idx], x[idx] * static_cast<float>(coverage[static_cast<size_t>(i)]),
                    1e-4f * std::max(1.0f, std::abs(back[idx])))
            << "stride=" << stride << " pad=" << pad << " idx=" << idx;
      }
    }
  }
}

// ---------- batched conv forward, bit for bit ----------

struct ConvGeom {
  int c, h, w, f, kh, kw, stride, pad;
};

// Every distinct convolution of the paper-default model at 64x64 input
// (perfbench/layers.cpp lists them as per-image GEMMs m = f, k = c*kh*kw,
// n = ho*wo), then edge cases of the strip packer and the routing.
const ConvGeom kConvSweep[] = {
    {3, 32, 32, 16, 3, 3, 1, 1},    // m16_k27_n1024
    {16, 32, 32, 32, 3, 3, 2, 1},   // m32_k144_n256
    {32, 16, 16, 32, 3, 3, 1, 1},   // m32_k288_n256
    {36, 16, 16, 48, 3, 3, 1, 1},   // m48_k324_n256
    {48, 16, 16, 48, 3, 3, 1, 1},   // m48_k432_n256
    {36, 16, 16, 48, 1, 1, 1, 0},   // m48_k36_n256
    {64, 32, 32, 32, 3, 3, 1, 1},   // m32_k576_n1024
    {32, 64, 64, 16, 3, 3, 1, 1},   // m16_k288_n4096
    {16, 64, 64, 3, 3, 3, 1, 1},    // m3_k144_n4096
    {32, 8, 8, 64, 3, 3, 1, 1},     // m64_k288_n64
    {4, 16, 16, 32, 3, 3, 1, 1},    // m32_k36_n256
    {32, 16, 16, 32, 3, 3, 2, 1},   // m32_k288_n64
    {64, 8, 8, 64, 3, 3, 1, 1},     // m64_k576_n64
    {32, 8, 8, 64, 1, 1, 1, 0},     // m64_k32_n64
    {96, 16, 16, 32, 3, 3, 1, 1},   // m32_k864_n256
    {96, 16, 16, 32, 1, 1, 1, 0},   // m32_k96_n256
    {32, 16, 16, 4, 3, 3, 1, 1},    // m4_k288_n256
    {3, 32, 32, 8, 3, 3, 1, 1},     // m8_k27_n1024
    {8, 32, 32, 16, 3, 3, 2, 1},    // m16_k72_n256
    {16, 16, 16, 16, 3, 3, 2, 1},   // m16_k144_n64
    {5, 5, 7, 7, 3, 3, 1, 1},       // 5x7 plane: ragged strips across rows
    {34, 6, 6, 13, 3, 3, 1, 1},     // K = 306, M = 13: K-block tail, M tail
    {6, 13, 11, 13, 3, 3, 2, 0},    // strided, unpadded, odd planes
    {4, 9, 9, 7, 5, 5, 1, 2},       // 5x5 taps, pad 2
    {16, 10, 10, 12, 1, 1, 2, 0},   // strided 1x1 (not the plain GEMM)
    {2, 4, 4, 3, 3, 3, 1, 1},       // under kSmallProblem: gemm_naive route
    {8, 4, 4, 16, 1, 1, 1, 0},      // m16_k8_n16: quickfast's small route
};

std::string geom_name(const ConvGeom& g, int n) {
  return "c" + std::to_string(g.c) + " " + std::to_string(g.h) + "x" +
         std::to_string(g.w) + " f" + std::to_string(g.f) + " k" +
         std::to_string(g.kh) + "x" + std::to_string(g.kw) + " s" +
         std::to_string(g.stride) + " p" + std::to_string(g.pad) + " n" +
         std::to_string(n);
}

// Runs the sweep at batch 1, 3 and 8, with and without bias, comparing
// PackedA::conv2d_forward with memcmp against the per-image route it
// replaced: im2col, then PackedA::run (out plane = W * patches, beta 0),
// then a separate bias pass. Both run on a 2-thread pool, the serve
// partition size, so the batched entry's task split is exercised while the
// sweep leaves the rest of the machine to concurrently running tests.
TEST(ConvForward, BatchedEntryBitEqualsPerImageIm2colAndPackedRun) {
  ThreadPool pool(2);
  PoolBinding bind(&pool);
  uint64_t seed = 41;
  for (const ConvGeom& g : kConvSweep) {
    const int ho = (g.h + 2 * g.pad - g.kh) / g.stride + 1;
    const int wo = (g.w + 2 * g.pad - g.kw) / g.stride + 1;
    const int kdim = g.c * g.kh * g.kw;
    const int64_t npix = static_cast<int64_t>(ho) * wo;
    Rng rng(++seed);
    const std::vector<float> w =
        random_vec(static_cast<size_t>(g.f) * kdim, rng);
    const std::vector<float> bias = random_vec(static_cast<size_t>(g.f), rng);
    const PackedA packed(false, g.f, kdim, w.data(), kdim);
    for (int n : {1, 3, 8}) {
      const std::vector<float> x =
          random_vec(static_cast<size_t>(n) * g.c * g.h * g.w, rng);
      const size_t out_size = static_cast<size_t>(n) * g.f * npix;
      std::vector<float> want(out_size);
      std::vector<float> col(static_cast<size_t>(kdim) * npix);
      for (int ni = 0; ni < n; ++ni) {
        im2col(x.data() + static_cast<size_t>(ni) * g.c * g.h * g.w, g.c,
               g.h, g.w, g.kh, g.kw, g.stride, g.pad, ho, wo, col.data());
        packed.run(npix, col.data(), npix, 0.0f,
                   want.data() + static_cast<size_t>(ni) * g.f * npix, npix);
      }
      std::vector<float> got(out_size, -7.0f);
      packed.conv2d_forward(x.data(), n, g.c, g.h, g.w, g.kh, g.kw, g.stride,
                            g.pad, ho, wo, nullptr, got.data());
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                               out_size * sizeof(float)))
          << geom_name(g, n) << ", no bias";
      for (size_t t = 0; t < static_cast<size_t>(n) * g.f; ++t) {
        for (int64_t j = 0; j < npix; ++j) {
          want[t * static_cast<size_t>(npix) + static_cast<size_t>(j)] +=
              bias[t % static_cast<size_t>(g.f)];
        }
      }
      std::fill(got.begin(), got.end(), -7.0f);
      packed.conv2d_forward(x.data(), n, g.c, g.h, g.w, g.kh, g.kw, g.stride,
                            g.pad, ho, wo, bias.data(), got.data());
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                               out_size * sizeof(float)))
          << geom_name(g, n) << ", bias";
    }
  }
}

TEST(ConvForward, RejectsWeightsOfAnotherDepth) {
  const std::vector<float> w(4 * 27, 1.0f);
  const PackedA packed(false, 4, 27, w.data(), 27);
  std::vector<float> x(2 * 8 * 8), out(4 * 8 * 8);
  EXPECT_THROW(packed.conv2d_forward(x.data(), 1, 2, 8, 8, 3, 3, 1, 1, 8, 8,
                                     nullptr, out.data()),
               std::invalid_argument);
}

// ---------- conv2d / linear against double-precision references ----------

struct ConvCase {
  int n, c, h, w, f, k, stride, pad;
};

// Calls fn(y index, x index, w index) for every in-bounds tap of the conv.
template <typename Fn>
void for_each_tap(const ConvCase& cc, int ho, int wo, Fn fn) {
  size_t yi = 0;
  for (int ni = 0; ni < cc.n; ++ni) {
    for (int fi = 0; fi < cc.f; ++fi) {
      for (int oy = 0; oy < ho; ++oy) {
        for (int ox = 0; ox < wo; ++ox, ++yi) {
          for (int ci = 0; ci < cc.c; ++ci) {
            for (int ky = 0; ky < cc.k; ++ky) {
              for (int kx = 0; kx < cc.k; ++kx) {
                const int iy = oy * cc.stride - cc.pad + ky;
                const int ix = ox * cc.stride - cc.pad + kx;
                if (iy < 0 || iy >= cc.h || ix < 0 || ix >= cc.w) continue;
                fn(yi, static_cast<size_t>(((ni * cc.c + ci) * cc.h + iy) *
                                               cc.w + ix),
                   static_cast<size_t>(((fi * cc.c + ci) * cc.k + ky) *
                                           cc.k + kx));
              }
            }
          }
        }
      }
    }
  }
}

std::vector<float> to_float(const std::vector<double>& v) {
  return std::vector<float>(v.begin(), v.end());
}

// Every GEMM of every case (forward, input and weight gradient: f * pixels
// * c*k*k multiply-adds per image) is above the 4096 small-problem bound,
// so all of them take the blocked route. The reference is y = conv(x, w) +
// b and the gradients of sum(y * y), in double precision.
TEST(ConvGemmPath, ForwardAndGradMatchDoubleReference) {
  const ConvCase cases[] = {
      {2, 3, 8, 8, 5, 3, 1, 1},    // padded same-size conv
      {1, 4, 9, 7, 6, 3, 2, 1},    // strided, non-square
      {2, 16, 8, 8, 24, 1, 1, 0},  // 1x1 zero-copy fast path
      {1, 4, 5, 5, 8, 5, 1, 2},    // kernel as large as the input
  };
  for (const ConvCase& cc : cases) {
    Rng rng(17);
    Tensor x = random_tensor({cc.n, cc.c, cc.h, cc.w}, rng);
    Tensor w = random_tensor({cc.f, cc.c, cc.k, cc.k}, rng);
    Tensor b = random_tensor({cc.f}, rng);
    x.set_requires_grad(true);
    w.set_requires_grad(true);
    b.set_requires_grad(true);
    Tensor y = conv2d(x, w, b, cc.stride, cc.pad);
    sum(mul(y, y)).backward();

    const int ho = (cc.h + 2 * cc.pad - cc.k) / cc.stride + 1;
    const int wo = (cc.w + 2 * cc.pad - cc.k) / cc.stride + 1;
    const size_t plane = static_cast<size_t>(ho) * wo;
    std::vector<double> yd(y.value().size());
    for (size_t i = 0; i < yd.size(); ++i) {
      yd[i] = b.value()[i / plane % static_cast<size_t>(cc.f)];
    }
    for_each_tap(cc, ho, wo, [&](size_t yi, size_t xi, size_t wi) {
      yd[yi] += static_cast<double>(x.value()[xi]) * w.value()[wi];
    });
    std::vector<double> xg(x.value().size()), wg(w.value().size()),
        bg(static_cast<size_t>(cc.f));
    for_each_tap(cc, ho, wo, [&](size_t yi, size_t xi, size_t wi) {
      xg[xi] += 2.0 * yd[yi] * w.value()[wi];
      wg[wi] += 2.0 * yd[yi] * x.value()[xi];
    });
    for (size_t i = 0; i < yd.size(); ++i) {
      bg[i / plane % static_cast<size_t>(cc.f)] += 2.0 * yd[i];
    }
    expect_close(y.value(), to_float(yd));
    expect_close(x.grad(), to_float(xg));
    expect_close(w.grad(), to_float(wg));
    expect_close(b.grad(), to_float(bg));
  }
}

// The forward's 32 x 150 multiply-adds per row and both gradient products
// (30 * 32 * 150) are above the 4096 small-problem bound, so all three
// GEMMs take the blocked route. The reference is y = x w^T + b and the
// gradients of sum(y * y), in double precision.
TEST(LinearGemmPath, ForwardAndGradMatchDoubleReference) {
  constexpr int rows = 30, in = 150, out = 32;
  Rng rng(19);
  Tensor x = random_tensor({rows, in}, rng);
  Tensor w = random_tensor({out, in}, rng);
  Tensor b = random_tensor({out}, rng);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  Tensor y = linear(x, w, b);
  sum(mul(y, y)).backward();

  const std::vector<float>& xv = x.value();
  const std::vector<float>& wv = w.value();
  std::vector<double> yd(static_cast<size_t>(rows * out));
  std::vector<double> xg(xv.size()), wg(wv.size());
  std::vector<double> bg(static_cast<size_t>(out));
  for (int i = 0; i < rows; ++i) {
    for (int o = 0; o < out; ++o) {
      double acc = b.value()[static_cast<size_t>(o)];
      for (int p = 0; p < in; ++p) {
        acc += static_cast<double>(xv[static_cast<size_t>(i * in + p)]) *
               wv[static_cast<size_t>(o * in + p)];
      }
      yd[static_cast<size_t>(i * out + o)] = acc;
    }
  }
  for (int i = 0; i < rows; ++i) {
    for (int o = 0; o < out; ++o) {
      const double g = 2.0 * yd[static_cast<size_t>(i * out + o)];
      bg[static_cast<size_t>(o)] += g;
      for (int p = 0; p < in; ++p) {
        const size_t xi = static_cast<size_t>(i * in + p);
        const size_t wi = static_cast<size_t>(o * in + p);
        xg[xi] += g * wv[wi];
        wg[wi] += g * xv[xi];
      }
    }
  }
  expect_close(y.value(), to_float(yd));
  expect_close(x.grad(), to_float(xg));
  expect_close(w.grad(), to_float(wg));
  expect_close(b.grad(), to_float(bg));
}

// The linear forward's rows are batch items: a row's output is the same
// bits whether it is computed alone or among 1, 7 or 31 other rows, on
// both sides of the 4096 multiply-adds-per-row bound.
TEST(LinearGemmPath, RowBitsDoNotDependOnBatchSize) {
  const std::pair<int, int> shapes[] = {{64, 32}, {64, 64}, {65, 64}, {200, 32}};
  for (const auto& [in, out] : shapes) {
    Rng rng(static_cast<uint64_t>(in * 100 + out));
    const Tensor w = random_tensor({out, in}, rng);
    const Tensor b = random_tensor({out}, rng);
    const std::vector<float> xs = random_vec(static_cast<size_t>(32 * in), rng);
    auto first_row = [&](int rows) {
      const std::vector<float> x(xs.begin(), xs.begin() + rows * in);
      const Tensor y = linear(Tensor::from_data({rows, in}, x), w, b);
      return std::vector<float>(y.value().begin(), y.value().begin() + out);
    };
    const std::vector<float> one = first_row(1);
    for (const int rows : {2, 8, 32}) {
      EXPECT_EQ(first_row(rows), one) << "in=" << in << " out=" << out
                                      << " rows=" << rows;
    }
  }
}

// Both convs issue 6 * 36 * (25 or 100) multiply-adds per GEMM, above the
// 4096 small-problem bound, so the gradients run the blocked kernel.
TEST(ConvGemmPath, GradCheckThroughBlockedKernel) {
  Rng rng(23);
  Tensor x = random_tensor({1, 4, 10, 10}, rng);
  Tensor w = random_tensor({6, 4, 3, 3}, rng);
  Tensor b = random_tensor({6}, rng);
  check_gradient(x, [&] { return mean(conv2d(x, w, b, 2, 1)); });
  check_gradient(w, [&] { return mean(conv2d(x, w, b, 1, 1)); });
}

// 40 x 110 multiply-adds per forward row and 3 * 40 * 110 per gradient
// product, above the 4096 small-problem bound: all three GEMMs are blocked.
TEST(LinearGemmPath, GradCheckThroughBlockedKernel) {
  Rng rng(29);
  Tensor x = random_tensor({3, 110}, rng);
  Tensor w = random_tensor({40, 110}, rng);
  Tensor b = random_tensor({40}, rng);
  check_gradient(x, [&] { return mean(linear(x, w, b)); });
  check_gradient(w, [&] { return mean(linear(x, w, b)); });
}

// ---------- workspace ----------

TEST(Workspace, ScopeRewindReusesMemory) {
  Workspace& ws = Workspace::tls();
  size_t reserved_after_first = 0;
  {
    Workspace::Scope scope;
    float* p = ws.floats(1000);
    p[0] = 1.0f;
    p[999] = 2.0f;
    EXPECT_GE(ws.bytes_in_use(), 1000 * sizeof(float));
    reserved_after_first = ws.bytes_reserved();
  }
  const size_t in_use_after = ws.bytes_in_use();
  {
    Workspace::Scope scope;
    ws.floats(500);
    ws.floats(500);
    // Same arena blocks serve the second scope: no new reservation.
    EXPECT_EQ(ws.bytes_reserved(), reserved_after_first);
  }
  EXPECT_EQ(ws.bytes_in_use(), in_use_after);
}

TEST(Workspace, PointersSurviveArenaGrowthWithinScope) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope;
  float* small = ws.floats(16);
  for (int i = 0; i < 16; ++i) small[i] = static_cast<float>(i);
  // Force new block allocations; `small` must stay valid and intact.
  ws.floats(1 << 20);
  ws.floats(1 << 21);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(small[i], static_cast<float>(i));
  }
}

TEST(Workspace, ConcurrentConvCallsFromPoolWorkersMatchSerial) {
  // Each pool worker runs conv2d (whose GEMM would itself try to
  // parallelize -- the nested call must run inline) against its own
  // thread-local arena. Results must be identical to serial execution.
  NoGradGuard no_grad;
  Rng rng(31);
  const int tasks = 16;
  std::vector<Tensor> xs, ws_, bs;
  for (int i = 0; i < tasks; ++i) {
    xs.push_back(random_tensor({1, 3, 12, 12}, rng));
    ws_.push_back(random_tensor({8, 3, 3, 3}, rng));
    bs.push_back(random_tensor({8}, rng));
  }
  std::vector<std::vector<float>> serial(static_cast<size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    serial[static_cast<size_t>(i)] =
        conv2d(xs[static_cast<size_t>(i)], ws_[static_cast<size_t>(i)],
               bs[static_cast<size_t>(i)], 1, 1)
            .value();
  }
  std::vector<std::vector<float>> concurrent(static_cast<size_t>(tasks));
  parallel_for(tasks, [&](int64_t i) {
    concurrent[static_cast<size_t>(i)] =
        conv2d(xs[static_cast<size_t>(i)], ws_[static_cast<size_t>(i)],
               bs[static_cast<size_t>(i)], 1, 1)
            .value();
  });
  for (int i = 0; i < tasks; ++i) {
    EXPECT_EQ(serial[static_cast<size_t>(i)], concurrent[static_cast<size_t>(i)])
        << "task " << i;
  }
}

// ---------- threadpool grain ----------

TEST(ThreadPoolGrain, GrainedRangesCoverEveryIndexOnce) {
  constexpr std::array<std::pair<int64_t, int64_t>, 4> cases{
      {{100, 7}, {5, 100}, {4096, 1}, {1, 1}}};
  for (const auto& [n, grain] : cases) {
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    for (auto& h : hits) h.store(0);
    parallel_for_ranges(n, grain, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
      }
    });
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

}  // namespace
}  // namespace dcdiff::nn

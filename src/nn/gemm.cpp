#include "nn/gemm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/threadpool.h"
#include "nn/workspace.h"

namespace dcdiff::nn {

namespace {

// Register tile: MR x NR accumulators. 6x16 fits the 16 vector registers of
// AVX2 (12 accumulator vectors + A broadcast + B loads) and divides evenly
// into NEON/SSE widths; the compiler vectorizes the j-loop at whatever width
// the target offers.
constexpr int64_t MR = 6;
constexpr int64_t NR = 16;
// K-block: packed panels of both operands for one block stay L1/L2-resident
// (KC * (MR + NR) floats ~ 22 KiB per in-flight tile pair).
constexpr int64_t KC = 256;
// N-block: bounds the packed-B panel at KC * NC floats (= 480 KiB).
constexpr int64_t NC = 480;  // multiple of NR
// Below this many MACs a product isn't worth packing + dispatch: the whole
// call's m * n * k for gemm(), one output row's n * k for gemm_rows().
constexpr int64_t kSmallProblem = 1 << 12;
// Target MACs per dispatched range when spreading micro-tiles over workers.
constexpr int64_t kGrainMacs = 1 << 17;
// What one element of a fused activation costs in MACs: kActGrain
// activations take about as long as kGrainMacs MACs (one expf against
// ~128 FMAs).
constexpr int64_t kActMacs = kGrainMacs / kActGrain;

inline float load_a(bool trans_a, const float* a, int64_t lda, int64_t i,
                    int64_t p) {
  return trans_a ? a[p * lda + i] : a[i * lda + p];
}

inline float load_b(bool trans_b, const float* b, int64_t ldb, int64_t p,
                    int64_t j) {
  return trans_b ? b[j * ldb + p] : b[p * ldb + j];
}

// Packs rows [0, m) x cols [pc, pc + kc) of A_op into MR-row panels:
// panel ir holds rows [ir*MR, ir*MR + MR), stored k-major as
// ap[ir*kc*MR + p*MR + i], zero-padded past the last real row so the
// micro-kernel always runs a full tile.
void pack_a(bool trans_a, const float* a, int64_t lda, int64_t m, int64_t pc,
            int64_t kc, float* ap) {
  for (int64_t i0 = 0; i0 < m; i0 += MR) {
    float* dst = ap + (i0 / MR) * kc * MR;
    const int64_t mr = std::min(MR, m - i0);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t i = 0; i < mr; ++i) {
        dst[p * MR + i] = load_a(trans_a, a, lda, i0 + i, pc + p);
      }
      for (int64_t i = mr; i < MR; ++i) dst[p * MR + i] = 0.0f;
    }
  }
}

// Packs rows [pc, pc + kc) x cols [jc, jc + nc) of B_op into NR-column
// panels: bp[jr*kc*NR + p*NR + j], zero-padded past the last real column.
// Kept out of line: inlined into gemm_blocked, its one caller, GCC 12 at
// -O3 -march=native compiled the transposed reads about 2x slower (on one
// thread of an AVX-512 Xeon, the linear forward's m8 n256 k256 transposed-B
// product took 114 instead of 48 us).
[[gnu::noinline]] void pack_b(bool trans_b, const float* b, int64_t ldb, int64_t pc, int64_t kc,
            int64_t jc, int64_t nc, float* bp) {
  for (int64_t j0 = 0; j0 < nc; j0 += NR) {
    float* dst = bp + (j0 / NR) * kc * NR;
    const int64_t nr = std::min(NR, nc - j0);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t j = 0; j < nr; ++j) {
        dst[p * NR + j] = load_b(trans_b, b, ldb, pc + p, jc + j0 + j);
      }
      for (int64_t j = nr; j < NR; ++j) dst[p * NR + j] = 0.0f;
    }
  }
}

// Packs the B strip of one conv2d forward task: rows [0, c*kh*kw) x output
// pixels [j0, j0 + nr) of one image's im2col matrix, read straight from the
// (c, h, w) input, stored k-major as bp[p*NR + j] and zero-padded past
// column nr — the layout pack_b gives one NR panel, holding exactly the
// values im2col would have written (0 where a tap falls in padding).
// The strip is cut into runs that stay within one output row, and
// (ci, ky, kx) advance as loop counters, so packing a row costs no division.
void pack_conv_strip(const float* x, int c, int h, int w, int kh, int kw,
                     int stride, int pad, int wo, int64_t j0, int64_t nr,
                     float* bp) {
  struct Run {
    int oy, ox, jd, len;  // output row, first column, strip offset, length
  };
  Run runs[NR];
  int nruns = 0;
  int oy = static_cast<int>(j0 / wo);
  int ox = static_cast<int>(j0 % wo);
  for (int jd = 0; jd < nr; ++oy, ox = 0) {
    const int len = std::min(static_cast<int>(nr) - jd, wo - ox);
    runs[nruns++] = Run{oy, ox, jd, len};
    jd += len;
  }
  const int64_t k = static_cast<int64_t>(c) * kh * kw;
  if (nr < NR) {
    for (int64_t p = 0; p < k; ++p) {
      std::fill(bp + p * NR + nr, bp + (p + 1) * NR, 0.0f);
    }
  }
  float* dst = bp;  // row (ci, ky, kx = 0) of the strip
  for (int ci = 0; ci < c; ++ci) {
    const float* xc = x + static_cast<int64_t>(ci) * h * w;
    for (int ky = 0; ky < kh; ++ky, dst += static_cast<int64_t>(kw) * NR) {
      for (int r = 0; r < nruns; ++r) {
        const Run& run = runs[r];
        const int iy = run.oy * stride - pad + ky;
        if (iy < 0 || iy >= h) {
          for (int kx = 0; kx < kw; ++kx) {
            std::fill_n(dst + kx * NR + run.jd, run.len, 0.0f);
          }
          continue;
        }
        const float* srow = xc + static_cast<int64_t>(iy) * w;
        for (int kx = 0; kx < kw; ++kx) {
          float* d = dst + kx * NR + run.jd;
          const int ix0 = run.ox * stride - pad + kx;  // input column of t = 0
          if (stride == 1) {
            // In-bounds taps are t in [lo, hi): 0 <= ix0 + t < w.
            const int lo = std::clamp(-ix0, 0, run.len);
            const int hi = std::clamp(w - ix0, lo, run.len);
            std::fill(d, d + lo, 0.0f);
            if (lo < hi) std::copy(srow + ix0 + lo, srow + ix0 + hi, d + lo);
            std::fill(d + hi, d + run.len, 0.0f);
          } else {
            for (int t = 0; t < run.len; ++t) {
              const int ix = ix0 + t * stride;
              d[t] = ix >= 0 && ix < w ? srow[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

// One MR x NR tile over a kc-deep packed panel pair.
//
// The accumulator is written as MR explicit NR-lane vectors (GCC/Clang
// vector extensions) rather than a float[MR][NR] array: auto-vectorizers
// routinely pick a narrow width for the array form (GCC 12 at
// -march=skylake-avx512 emits 128-bit FMAs, ~1/10th of peak), whereas the
// vector type pins each accumulator row to one AVX-512 register (or a ymm
// pair on AVX2 -- the compiler legalizes wider-than-native vectors by
// splitting, so this stays portable down to SSE). Loads/stores go through
// memcpy: panel and C-row addresses are not 64-byte aligned in general.
#if defined(__GNUC__) || defined(__clang__)
#define DCDIFF_GEMM_VECTOR_EXT 1
typedef float VRow __attribute__((vector_size(NR * sizeof(float))));
#endif

void micro_kernel(int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, float* __restrict c, int64_t ldc,
                  int64_t mr, int64_t nr, float beta) {
#ifdef DCDIFF_GEMM_VECTOR_EXT
  VRow acc[MR];
  for (int64_t i = 0; i < MR; ++i) acc[i] = VRow{};
  for (int64_t p = 0; p < kc; ++p) {
    VRow bv;
    __builtin_memcpy(&bv, bp + p * NR, sizeof(bv));
    const float* acol = ap + p * MR;
    for (int64_t i = 0; i < MR; ++i) acc[i] += acol[i] * bv;
  }
  if (mr == MR && nr == NR) {
    for (int64_t i = 0; i < MR; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0f) {
        __builtin_memcpy(crow, &acc[i], sizeof(VRow));
      } else {
        VRow cv;
        __builtin_memcpy(&cv, crow, sizeof(cv));
        cv = beta * cv + acc[i];
        __builtin_memcpy(crow, &cv, sizeof(cv));
      }
    }
    return;
  }
  float accs[MR][NR];
  __builtin_memcpy(accs, acc, sizeof(accs));
#else
  float accs[MR][NR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * NR;
    const float* acol = ap + p * MR;
    for (int64_t i = 0; i < MR; ++i) {
      const float av = acol[i];
      for (int64_t j = 0; j < NR; ++j) accs[i][j] += av * brow[j];
    }
  }
  if (mr == MR && nr == NR) {
    for (int64_t i = 0; i < MR; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0f) {
        for (int64_t j = 0; j < NR; ++j) crow[j] = accs[i][j];
      } else {
        for (int64_t j = 0; j < NR; ++j) {
          crow[j] = beta * crow[j] + accs[i][j];
        }
      }
    }
    return;
  }
#endif
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr; ++j) {
      crow[j] = beta == 0.0f ? accs[i][j] : beta * crow[j] + accs[i][j];
    }
  }
}

// The blocked loop behind gemm(), gemm_rows() and PackedA::run(). K-blocks
// run outermost, so A is packed once per block: into Workspace scratch, or
// not at all when `panels` holds A_op pre-packed block after block
// (PackedA's layout). B is packed per (K-block, N-block). Every C element
// adds its K-blocks in ascending order, K-blocks past the first with
// beta = 1, so the three entry points are bit-equal on equal operands.
void gemm_blocked(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                  const float* a, int64_t lda, const float* panels,
                  const float* b, int64_t ldb, float beta, float* c,
                  int64_t ldc) {
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  const int64_t row_panels = (m + MR - 1) / MR;
  const int64_t kc_max = std::min(KC, k);
  float* ap = panels ? nullptr
                     : ws.floats(static_cast<size_t>(row_panels * kc_max * MR));
  float* bp = ws.floats(
      static_cast<size_t>(((std::min(NC, n) + NR - 1) / NR) * kc_max * NR));
  for (int64_t pc = 0; pc < k; pc += KC) {
    const int64_t kc = std::min(KC, k - pc);
    const float beta_eff = pc == 0 ? beta : 1.0f;
    // Every block before this one is KC deep.
    const float* apc = panels ? panels + row_panels * MR * pc : ap;
    if (!panels) pack_a(trans_a, a, lda, m, pc, kc, ap);
    for (int64_t jc = 0; jc < n; jc += NC) {
      const int64_t nc = std::min(NC, n - jc);
      const int64_t col_panels = (nc + NR - 1) / NR;
      pack_b(trans_b, b, ldb, pc, kc, jc, nc, bp);
      const int64_t tiles = row_panels * col_panels;
      const int64_t grain =
          std::max<int64_t>(1, kGrainMacs / (kc * MR * NR));
      parallel_for_ranges(tiles, grain, [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const int64_t ir = t / col_panels;
          const int64_t jr = t % col_panels;
          micro_kernel(kc, apc + ir * kc * MR, bp + jr * kc * NR,
                       c + ir * MR * ldc + jc + jr * NR, ldc,
                       std::min(MR, m - ir * MR), std::min(NR, nc - jr * NR),
                       beta_eff);
        }
      });
    }
  }
}

// gemm(), gemm_rows() and PackedA::run(): `work` is the MAC count their
// routing rule compares with kSmallProblem; `panels` is PackedA's or null.
void gemm_routed(int64_t work, bool trans_a, bool trans_b, int64_t m,
                 int64_t n, int64_t k, const float* a, int64_t lda,
                 const float* panels, const float* b, int64_t ldb, float beta,
                 float* c, int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate: C = beta * C.
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0f) {
        std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
      } else if (beta != 1.0f) {
        for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }
  if (work <= kSmallProblem) {
    gemm_naive(trans_a, trans_b, m, n, k, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  gemm_blocked(trans_a, trans_b, m, n, k, a, lda, panels, b, ldb, beta, c,
               ldc);
}

}  // namespace

// Parallelized over rows so the reference stays usable on real workloads.
void gemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                const float* a, int64_t lda, const float* b, int64_t ldb,
                float beta, float* c, int64_t ldc) {
  const int64_t grain = std::max<int64_t>(1, kGrainMacs / std::max<int64_t>(1, n * k));
  parallel_for_ranges(m, grain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
          acc += load_a(trans_a, a, lda, i, p) * load_b(trans_b, b, ldb, p, j);
        }
        crow[j] = beta == 0.0f ? acc : beta * crow[j] + acc;
      }
    }
  });
}

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, int64_t lda, const float* b, int64_t ldb, float beta,
          float* c, int64_t ldc) {
  gemm_routed(m * n * k, trans_a, trans_b, m, n, k, a, lda, nullptr, b, ldb,
              beta, c, ldc);
}

void gemm_rows(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
               const float* a, int64_t lda, const float* b, int64_t ldb,
               float beta, float* c, int64_t ldc) {
  gemm_routed(n * k, trans_a, trans_b, m, n, k, a, lda, nullptr, b, ldb, beta,
              c, ldc);
}

PackedA::PackedA(bool trans_a, int64_t m, int64_t k, const float* a,
                 int64_t lda)
    : m_(m), k_(k), trans_a_(trans_a), a_(a), lda_(lda) {
  const int64_t row_panels = (m + MR - 1) / MR;
  panels_.resize(static_cast<size_t>(row_panels) * MR * k);
  for (int64_t pc = 0; pc < k; pc += KC) {
    pack_a(trans_a, a, lda, m, pc, std::min(KC, k - pc),
           panels_.data() + row_panels * MR * pc);
  }
}

void PackedA::run(int64_t n, const float* b, int64_t ldb, float beta, float* c,
                  int64_t ldc) const {
  // gemm()'s routing, so a batched matmul through PackedA is bit-equal to
  // the per-call gemm() the single-image path would issue.
  gemm_routed(m_ * n * k_, trans_a_, false, m_, n, k_, a_, lda_,
              panels_.data(), b, ldb, beta, c, ldc);
}

void PackedA::conv2d_forward(const float* x, int n, int c, int h, int w,
                             int kh, int kw, int stride, int pad, int ho,
                             int wo, const float* bias, float* out,
                             Act act) const {
  if (static_cast<int64_t>(c) * kh * kw != k_) {
    throw std::invalid_argument("PackedA::conv2d_forward: c*kh*kw != k");
  }
  const int64_t npix = static_cast<int64_t>(ho) * wo;
  if (m_ <= 0 || n <= 0 || npix <= 0) return;
  const int64_t in_plane = static_cast<int64_t>(c) * h * w;
  const int64_t out_plane = m_ * npix;
  // run()'s per-image routing: every image of the batch has the same shape,
  // so the whole batch takes gemm_naive() or the blocked path. The small
  // route keeps the per-image im2col + gemm() it replaces: GCC vectorizes
  // gemm_naive's K loop into unfused vector products summed in order, with
  // fused tails, so its bits belong to that compiled loop and its B stride,
  // and a sum written any other way would not reproduce them.
  if (k_ <= 0 || m_ * npix * k_ <= kSmallProblem) {
    Workspace::Scope scope;
    float* col = Workspace::tls().floats(static_cast<size_t>(k_ * npix));
    for (int ni = 0; ni < n; ++ni) {
      im2col(x + ni * in_plane, c, h, w, kh, kw, stride, pad, ho, wo, col);
      gemm(trans_a_, false, m_, npix, k_, a_, lda_, col, npix, 0.0f,
           out + ni * out_plane, npix);
    }
    if (bias || act != Act::kNone) {
      parallel_for_ranges(
          n * m_, std::max<int64_t>(1, ew_grain(act) / npix),
          [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
              float* crow = out + r * npix;
              if (bias) {
                const float b = bias[r % m_];
                for (int64_t j = 0; j < npix; ++j) crow[j] += b;
              }
              act_inplace(act, crow, static_cast<size_t>(npix));
            }
          });
    }
    return;
  }
  const int64_t row_panels = (m_ + MR - 1) / MR;
  const int64_t strips = (npix + NR - 1) / NR;
  // A strip costs m_ * NR * k_ MACs, plus m_ * NR activations when fused.
  const int64_t strip_macs =
      m_ * NR * (k_ + (act == Act::kNone ? 0 : kActMacs));
  const int64_t grain = std::max<int64_t>(1, kGrainMacs / strip_macs);
  parallel_for_ranges(n * strips, grain, [&](int64_t t0, int64_t t1) {
    Workspace::Scope scope;
    float* bp = Workspace::tls().floats(static_cast<size_t>(k_ * NR));
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t ni = t / strips;
      const int64_t j0 = (t % strips) * NR;
      const int64_t nr = std::min(NR, npix - j0);
      pack_conv_strip(x + ni * in_plane, c, h, w, kh, kw, stride, pad, wo, j0,
                      nr, bp);
      float* cs = out + ni * out_plane + j0;
      for (int64_t pc = 0; pc < k_; pc += KC) {
        const int64_t kc = std::min(KC, k_ - pc);
        const float* ap = panels_.data() + row_panels * MR * pc;
        for (int64_t ir = 0; ir < row_panels; ++ir) {
          micro_kernel(kc, ap + ir * kc * MR, bp + pc * NR,
                       cs + ir * MR * npix, npix, std::min(MR, m_ - ir * MR),
                       nr, pc == 0 ? 0.0f : 1.0f);
        }
      }
      if (bias || act != Act::kNone) {
        for (int64_t i = 0; i < m_; ++i) {
          float* crow = cs + i * npix;
          if (bias) {
            for (int64_t j = 0; j < nr; ++j) crow[j] += bias[i];
          }
          act_inplace(act, crow, static_cast<size_t>(nr));
        }
      }
    }
  });
}

void im2col(const float* x, int c, int h, int w, int kh, int kw, int stride,
            int pad, int ho, int wo, float* col) {
  const int64_t ld = static_cast<int64_t>(ho) * wo;
  const int64_t rows = static_cast<int64_t>(c) * kh * kw;
  const int64_t row_elems = static_cast<int64_t>(ho) * wo;
  const int64_t grain = std::max<int64_t>(1, (1 << 14) / std::max<int64_t>(1, row_elems));
  parallel_for_ranges(rows, grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int ci = static_cast<int>(r / (kh * kw));
      const int ky = static_cast<int>(r / kw % kh);
      const int kx = static_cast<int>(r % kw);
      const float* xp = x + static_cast<int64_t>(ci) * h * w;
      float* dst = col + r * ld;
      // ox producing an in-bounds ix = ox*stride - pad + kx:
      const int lo_num = pad - kx;
      const int ox_lo =
          lo_num <= 0 ? 0 : (lo_num + stride - 1) / stride;  // first valid
      const int hi_num = w - 1 + pad - kx;
      const int ox_hi =
          hi_num < 0 ? -1 : std::min(wo - 1, hi_num / stride);  // last valid
      for (int oy = 0; oy < ho; ++oy) {
        float* drow = dst + static_cast<int64_t>(oy) * wo;
        const int iy = oy * stride - pad + ky;
        if (iy < 0 || iy >= h || ox_hi < ox_lo) {
          std::memset(drow, 0, static_cast<size_t>(wo) * sizeof(float));
          continue;
        }
        for (int ox = 0; ox < ox_lo; ++ox) drow[ox] = 0.0f;
        const float* srow = xp + static_cast<int64_t>(iy) * w;
        if (stride == 1) {
          std::memcpy(drow + ox_lo, srow + (ox_lo - pad + kx),
                      static_cast<size_t>(ox_hi - ox_lo + 1) * sizeof(float));
        } else {
          for (int ox = ox_lo; ox <= ox_hi; ++ox) {
            drow[ox] = srow[ox * stride - pad + kx];
          }
        }
        for (int ox = ox_hi + 1; ox < wo; ++ox) drow[ox] = 0.0f;
      }
    }
  });
}

void col2im_add(const float* col, int c, int h, int w, int kh, int kw,
                int stride, int pad, int ho, int wo, float* x) {
  const int64_t row_elems = static_cast<int64_t>(ho) * wo;
  const int64_t per_channel = static_cast<int64_t>(kh) * kw * row_elems;
  const int64_t grain =
      std::max<int64_t>(1, (1 << 14) / std::max<int64_t>(1, per_channel));
  // Channel-parallel: channel ci's col rows scatter only into x plane ci,
  // so ranges write disjoint memory and the result is deterministic.
  parallel_for_ranges(c, grain, [&](int64_t c0, int64_t c1) {
    for (int64_t ci = c0; ci < c1; ++ci) {
      float* xp = x + ci * h * w;
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          const int64_t r = (ci * kh + ky) * kw + kx;
          const float* src = col + r * row_elems;
          const int lo_num = pad - kx;
          const int ox_lo = lo_num <= 0 ? 0 : (lo_num + stride - 1) / stride;
          const int hi_num = w - 1 + pad - kx;
          const int ox_hi = hi_num < 0 ? -1 : std::min(wo - 1, hi_num / stride);
          if (ox_hi < ox_lo) continue;
          for (int oy = 0; oy < ho; ++oy) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            const float* srow = src + static_cast<int64_t>(oy) * wo;
            float* xrow = xp + static_cast<int64_t>(iy) * w;
            for (int ox = ox_lo; ox <= ox_hi; ++ox) {
              xrow[ox * stride - pad + kx] += srow[ox];
            }
          }
        }
      }
    }
  });
}

}  // namespace dcdiff::nn

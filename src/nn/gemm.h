// Cache-blocked single-precision GEMM, the batched conv2d forward built on
// it, and the im2col/col2im patch transforms behind the conv2d gradients.
//
// One micro-kernel (6x16 register tile, FMA-friendly inner loop) serves
// every matrix product in the library: conv2d forward (weights x patches,
// packed strip by strip straight from the input), the conv2d input gradient
// (transposed weights x output gradient, scattered back through col2im),
// the conv2d weight gradient (output gradient x transposed im2col patches),
// and linear forward/backward. Operands are packed into contiguous
// K-blocked panels allocated from the calling thread's Workspace; the work
// is parallelized over ThreadPool::current(), the calling thread's bound
// pool partition (or the global pool when none is bound). Products within
// the small-problem bound of 4096 multiply-adds (see gemm_rows() for how
// each entry point sizes a product) skip the packing and run gemm_naive().
#pragma once

#include <cstdint>
#include <vector>

#include "nn/kernels.h"

namespace dcdiff::nn {

// C (m x n, row-major, leading dimension ldc) = A_op * B_op + beta * C.
//
//   trans_a == false: `a` is m x k row-major with leading dimension lda.
//   trans_a == true:  `a` is k x m row-major with leading dimension lda and
//                     A_op = a^T (i.e. A_op[i, p] = a[p * lda + i]).
//   trans_b == false: `b` is k x n row-major with leading dimension ldb.
//   trans_b == true:  `b` is n x k row-major with leading dimension ldb and
//                     B_op = b^T (i.e. B_op[p, j] = b[j * ldb + p]).
//
// beta == 0 overwrites C (it is never read); beta == 1 accumulates, which
// is how gradient GEMMs add into existing grad buffers.
void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, int64_t lda, const float* b, int64_t ldb, float beta,
          float* c, int64_t ldc);

// gemm() for products whose rows are independent items (the batch rows of
// a linear layer's forward). gemm() picks the naive loop or the blocked
// kernel on the whole call's m * n * k, so a row's FMA order, and with it
// its bits, would depend on how many rows share the call; gemm_rows()
// picks on one row's n * k, so an image's outputs never depend on its
// batch-mates.
void gemm_rows(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
               const float* a, int64_t lda, const float* b, int64_t ldb,
               float beta, float* c, int64_t ldc);

// The unblocked loop (same operands as gemm()): one dot product per
// output, rows spread over the pool. It is the small-problem route of
// gemm(), gemm_rows() and PackedA, so its bits are those of every product
// within that bound, and it is the reference tests and bench_micro call
// directly.
void gemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                const float* a, int64_t lda, const float* b, int64_t ldb,
                float beta, float* c, int64_t ldc);

// im2col for one NCHW image plane set: x is (c, h, w); the output `col` is
// (c*kh*kw) x (ho*wo) row-major, row (ci*kh + ky)*kw + kx holding the input
// value each output pixel sees at kernel tap (ky, kx) of channel ci (zero
// where the tap falls in padding). Row order matches the flattened weight
// layout (F, C, kH, kW), so conv2d forward is W[f x K] * col[K x N].
void im2col(const float* x, int c, int h, int w, int kh, int kw, int stride,
            int pad, int ho, int wo, float* col);

// Pre-packed left operand for one-weight-many-inputs products.
//
// gemm() packs A into micro-kernel panels on every call. When the same
// matrix multiplies a batch of right-hand sides (conv2d weights against
// every image of every call), that packing is pure waste: PackedA packs
// A_op (m x k) into panel layout exactly once and run() / conv2d_forward()
// reuse it for every B. run() is gemm()'s blocked loop reading these
// panels, so it is bit-equal to gemm(trans_a, false, ...) on the same
// operands — batching stays a pure performance transform.
//
// The original `a` pointer must stay valid for the PackedA's lifetime:
// small products take gemm_naive(), which reads it directly, again
// matching what gemm() would have done.
class PackedA {
 public:
  PackedA(bool trans_a, int64_t m, int64_t k, const float* a, int64_t lda);

  // C (m x n, leading dim ldc) = A_op * B + beta * C, B row-major k x n
  // with leading dimension ldb (trans_b = false).
  void run(int64_t n, const float* b, int64_t ldb, float beta, float* c,
           int64_t ldc) const;

  // Batched conv2d forward with A_op holding the flattened (F, C, kH, kW)
  // weights (m = F, k = c*kh*kw; throws std::invalid_argument otherwise):
  // out (n, m, ho, wo) = act(conv2d(x (n, c, h, w), stride, zero pad) +
  // bias) (bias[m], skipped when null). Bit-equal to im2col + run(beta = 0)
  // per image followed by a separate bias pass and the standalone
  // activation kernel, with one dispatch for the whole batch: tasks are
  // (image, 16-column output strip) pairs, each packing its B strip
  // straight from x into Workspace scratch, running every weight row-panel
  // over it K-block by K-block, then adding the bias and applying `act` to
  // the strip it wrote. Problems run() would route to gemm_naive() keep
  // that route: im2col into Workspace scratch and gemm(), image by image,
  // then one parallel bias + `act` pass over the output rows.
  void conv2d_forward(const float* x, int n, int c, int h, int w, int kh,
                      int kw, int stride, int pad, int ho, int wo,
                      const float* bias, float* out,
                      Act act = Act::kNone) const;

 private:
  int64_t m_ = 0;
  int64_t k_ = 0;
  bool trans_a_ = false;
  const float* a_ = nullptr;  // for the small-problem route
  int64_t lda_ = 0;
  std::vector<float> panels_;  // all K-blocks, packed back to back
};

// Transpose scatter of im2col: accumulates col (laid out as above) back
// into x (size c*h*w). x is NOT zeroed first — callers accumulate gradients.
void col2im_add(const float* col, int c, int h, int w, int kh, int kw,
                int stride, int pad, int ho, int wo, float* x);

}  // namespace dcdiff::nn

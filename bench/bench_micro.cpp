// Microbenchmarks (google-benchmark) of the primitives behind the
// experiment harnesses: DCT, quantization, Huffman entropy coding, full
// encode, baseline recovery, and the NN building blocks.
//
// With DCDIFF_BENCH_JSON set, a JSON report is written at exit containing
// the obs metrics registry snapshot: the instrumented codec / NN stages
// (jpeg.*_seconds, nn.threadpool.*) expose per-stage latency percentiles
// accumulated across all benchmark iterations.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iterator>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "baselines/dc_recovery.h"
#include "bench_util.h"
#include "data/datasets.h"
#include "jpeg/codec.h"
#include "jpeg/dcdrop.h"
#include "jpeg/dct.h"
#include "nn/gemm.h"
#include "nn/kernels.h"
#include "nn/modules.h"
#include "nn/ops.h"
#include "nn/threadpool.h"

using namespace dcdiff;

namespace {

jpeg::PixelBlock sample_block() {
  jpeg::PixelBlock b;
  Rng rng(1);
  for (float& v : b) v = rng.uniform(-128.0f, 127.0f);
  return b;
}

void BM_Fdct8x8(benchmark::State& state) {
  const jpeg::PixelBlock px = sample_block();
  jpeg::CoefBlock cf;
  for (auto _ : state) {
    jpeg::fdct8x8(px, cf);
    benchmark::DoNotOptimize(cf);
  }
}
BENCHMARK(BM_Fdct8x8);

void BM_Idct8x8(benchmark::State& state) {
  jpeg::CoefBlock cf;
  Rng rng(2);
  for (float& v : cf) v = rng.uniform(-200.0f, 200.0f);
  jpeg::PixelBlock px;
  for (auto _ : state) {
    jpeg::idct8x8(cf, px);
    benchmark::DoNotOptimize(px);
  }
}
BENCHMARK(BM_Idct8x8);

void BM_JpegEncode(benchmark::State& state) {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 0,
                                        static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = jpeg::jpeg_encode(img, 50);
    benchmark::DoNotOptimize(result.bytes);
  }
  state.SetBytesProcessed(state.iterations() * img.width() * img.height() *
                          3);
}
BENCHMARK(BM_JpegEncode)->Arg(64)->Arg(128);

void BM_JpegEncodeDropDC(benchmark::State& state) {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 0,
                                        static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto coeffs = jpeg::forward_transform(img, 50);
    jpeg::drop_dc(coeffs);
    auto bytes = jpeg::encode_jfif(coeffs);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * img.width() * img.height() *
                          3);
}
BENCHMARK(BM_JpegEncodeDropDC)->Arg(64)->Arg(128);

void BM_JpegDecode(benchmark::State& state) {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 1, 64);
  const auto bytes = jpeg::jpeg_encode(img, 50).bytes;
  for (auto _ : state) {
    Image out = jpeg::jpeg_decode(bytes);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_JpegDecode);

void BM_BaselineRecovery(benchmark::State& state) {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 2, 64);
  jpeg::CoeffImage dropped = jpeg::forward_transform(img, 50);
  jpeg::drop_dc(dropped);
  const auto method =
      static_cast<baselines::RecoveryMethod>(state.range(0));
  for (auto _ : state) {
    Image out = baselines::recover_dc(dropped, method);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BaselineRecovery)->Arg(0)->Arg(1)->Arg(2);

// Every NN benchmark below that runs on the thread pool binds its own
// 2-thread partition (nn::PoolBinding), as a serving worker does, and
// reports wall time (UseRealTime): on the process-wide pool, which has a
// thread per CPU, any other process on the host moves the numbers by a
// large factor.

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(16, 16, 3, 1, 1, rng);
  const nn::Tensor x = nn::Tensor::full({1, 16, 32, 32}, 0.5f);
  nn::NoGradGuard no_grad;
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  for (auto _ : state) {
    nn::Tensor y = conv(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Conv2dForward)->UseRealTime();

void BM_Conv2dTrainStep(benchmark::State& state) {
  Rng rng(4);
  nn::Conv2d conv(8, 8, 3, 1, 1, rng);
  const nn::Tensor x = nn::Tensor::full({1, 8, 16, 16}, 0.5f);
  const nn::Tensor target = nn::Tensor::full({1, 8, 16, 16}, 0.25f);
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  for (auto _ : state) {
    nn::Tensor loss = nn::mse_loss(conv(x), target);
    loss.backward();
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_Conv2dTrainStep)->UseRealTime();

// ---- GEMM / conv2d compute path ----
//
// BM_Gemm covers the raw kernel at square sizes spanning the small-problem
// cutoff up past the KC/NC blocking thresholds; BM_GemmReference is the same
// shape through gemm_naive, the unblocked reference loop, so the ratio
// between the two is the blocked kernel's speedup on this host.

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  std::vector<float> a(static_cast<size_t>(n * n));
  std::vector<float> b(static_cast<size_t>(n * n));
  std::vector<float> c(static_cast<size_t>(n * n));
  for (float& v : a) v = rng.normal();
  for (float& v : b) v = rng.normal();
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  for (auto _ : state) {
    nn::gemm(false, false, n, n, n, a.data(), n, b.data(), n, 0.0f, c.data(),
             n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n * 2);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(128)->Arg(512)->UseRealTime();

void BM_GemmReference(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  std::vector<float> a(static_cast<size_t>(n * n));
  std::vector<float> b(static_cast<size_t>(n * n));
  std::vector<float> c(static_cast<size_t>(n * n));
  for (float& v : a) v = rng.normal();
  for (float& v : b) v = rng.normal();
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  for (auto _ : state) {
    nn::gemm_naive(false, false, n, n, n, a.data(), n, b.data(), n, 0.0f,
                   c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n * 2);
}
BENCHMARK(BM_GemmReference)->Arg(128)->Arg(512)->UseRealTime();

void BM_Im2col(benchmark::State& state) {
  const int c = 32, h = 32, w = 32, kh = 3, kw = 3, stride = 1, pad = 1;
  const int ho = h, wo = w;
  Rng rng(6);
  std::vector<float> x(static_cast<size_t>(c) * h * w);
  for (float& v : x) v = rng.normal();
  std::vector<float> col(static_cast<size_t>(c) * kh * kw * ho * wo);
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  for (auto _ : state) {
    nn::im2col(x.data(), c, h, w, kh, kw, stride, pad, ho, wo, col.data());
    benchmark::DoNotOptimize(col.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(col.size()) * sizeof(float));
}
BENCHMARK(BM_Im2col)->UseRealTime();

// The conv forward as the paper-default model serves it (3x3, stride 1,
// pad 1, bias): PackedA::conv2d_forward on a 2-thread pool partition, strip
// packing included. perfbench's nn.gemm rows time PackedA::run on prebuilt
// patch matrices instead. UNet shapes run at 2 rows (one request, ensemble
// 2) and 8 (a batch of 4); decoder shapes at 1 image, as the decoder plan
// runs. Items are multiply-adds.
struct ServeConv {
  int m, c, hw;  // output channels, input channels, plane side
};
constexpr ServeConv kServeConvs[] = {
    {32, 32, 16}, {64, 64, 8},  {32, 96, 16}, {4, 32, 16},  // UNet
    {16, 32, 64}, {32, 64, 32}, {3, 16, 64},                // decoder
};
constexpr int kUNetServeConvs = 4;

void BM_Conv2dForwardServe(benchmark::State& state) {
  const ServeConv& s = kServeConvs[state.range(0)];
  const int rows = static_cast<int>(state.range(1));
  const int k = s.c * 9;
  const int64_t npix = static_cast<int64_t>(s.hw) * s.hw;
  Rng rng(7);
  std::vector<float> w(static_cast<size_t>(s.m) * k);
  std::vector<float> bias(static_cast<size_t>(s.m));
  std::vector<float> x(static_cast<size_t>(rows) * s.c * npix);
  for (std::vector<float>* v : {&w, &bias, &x}) {
    for (float& e : *v) e = rng.normal();
  }
  std::vector<float> out(static_cast<size_t>(rows) * s.m * npix);
  const nn::PackedA packed(false, s.m, k, w.data(), k);
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  for (auto _ : state) {
    packed.conv2d_forward(x.data(), rows, s.c, s.hw, s.hw, 3, 3, 1, 1, s.hw,
                          s.hw, bias.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("m" + std::to_string(s.m) + "_k" + std::to_string(k) + "_" +
                 std::to_string(s.hw) + "x" + std::to_string(s.hw));
  state.SetItemsProcessed(state.iterations() * rows * s.m * k * npix);
}
BENCHMARK(BM_Conv2dForwardServe)
    ->ArgNames({"shape", "rows"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int i = 0; i < kUNetServeConvs; ++i) b->Args({i, 2})->Args({i, 8});
      for (int i = kUNetServeConvs; i < static_cast<int>(std::size(kServeConvs));
           ++i) {
        b->Args({i, 1});
      }
    })
    ->UseRealTime();

void BM_LinearForward(benchmark::State& state) {
  Rng rng(8);
  nn::Linear lin(256, 256, rng);
  const nn::Tensor x = nn::Tensor::full({8, 256}, 0.5f);
  nn::NoGradGuard no_grad;
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  for (auto _ : state) {
    nn::Tensor y = lin(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_LinearForward)->UseRealTime();

void BM_GroupNorm(benchmark::State& state) {
  nn::GroupNorm gn(32, 8);
  const nn::Tensor x = nn::Tensor::full({2, 32, 16, 16}, 1.5f);
  nn::NoGradGuard no_grad;
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  for (auto _ : state) {
    nn::Tensor y = gn(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_GroupNorm)->UseRealTime();

// Group norm with the fused SiLU as the plan runs it (k_group_norm applying
// the activation to each (sample, group) slice in that slice's task) on a
// 2-thread pool partition, at the UNet's 16x16-level shapes for batch 4 x
// ensemble 2 rows. silu:0 runs the same group norm alone, so the
// difference is the activation's expf cost.
void BM_GroupNormSiLU(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const nn::Act act = state.range(1) ? nn::Act::kSiLU : nn::Act::kNone;
  constexpr int n = 8;
  constexpr size_t inner = 16 * 16;
  const int groups = nn::norm_groups_for(c);
  Rng rng(9);
  std::vector<float> x(static_cast<size_t>(n) * c * inner);
  for (float& v : x) v = rng.normal();
  const std::vector<float> gamma(static_cast<size_t>(c), 1.1f);
  const std::vector<float> beta(static_cast<size_t>(c), 0.1f);
  std::vector<float> out(x.size());
  nn::ThreadPool pool(2);
  nn::PoolBinding bind(&pool);
  for (auto _ : state) {
    nn::k_group_norm(x.data(), gamma.data(), beta.data(), out.data(), n, c,
                     groups, inner, 1e-5f, act);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_GroupNormSiLU)
    ->ArgNames({"c", "silu"})
    ->ArgsProduct({{32, 96}, {0, 1}})
    ->UseRealTime();

// The pool's hand-off cost: one parallel_for_ranges of `threads` ranges,
// each spinning `spin_us` microseconds, on a ThreadPool(threads). spin_us:0
// is an empty dispatch; with spin_us:10 the wall time over 10 us is what
// starting the other ranges and joining them costs. Wall time per
// dispatch. On Linux, `colocated` is the share of dispatches in which a
// worker's range started on the CPU the caller's range (range 0) started
// on: such ranges time-share one CPU, so the dispatch takes their sum, not
// their maximum.
void BM_PoolHandoff(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto spin = std::chrono::microseconds(state.range(1));
  nn::ThreadPool pool(threads);
  nn::PoolBinding bind(&pool);
  std::vector<int> cpu(static_cast<size_t>(threads), -1);
  int64_t colocated = 0;
  for (auto _ : state) {
    nn::parallel_for_ranges(threads, 1, [&](int64_t r, int64_t) {
#ifdef __linux__
      cpu[static_cast<size_t>(r)] = sched_getcpu();
#endif
      const auto end = std::chrono::steady_clock::now() + spin;
      while (std::chrono::steady_clock::now() < end) {
      }
    });
    for (int r = 1; r < threads; ++r) {
      if (cpu[static_cast<size_t>(r)] >= 0 &&
          cpu[static_cast<size_t>(r)] == cpu[0]) {
        ++colocated;
        break;
      }
    }
  }
#ifdef __linux__
  state.counters["colocated"] = benchmark::Counter(
      static_cast<double>(colocated), benchmark::Counter::kAvgIterations);
#endif
}
BENCHMARK(BM_PoolHandoff)
    ->ArgNames({"threads", "spin_us"})
    ->ArgsProduct({{2, 4}, {0, 10}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport::instance().set_bench("micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The JSON report (with the metrics registry snapshot) is written by the
  // JsonReport atexit hook when DCDIFF_BENCH_JSON is set.
  return 0;
}

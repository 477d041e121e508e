#!/usr/bin/env bash
# Sanitizer smoke: configure + build the `sanitize` (ASan+UBSan) and `tsan`
# presets and run the `concurrency`-, `nn`- and `codec`-labelled tests under
# each.
# This is the commit-gate for the threaded serving engine — the labelled
# suites cover the thread pool (partitioned and global), the sharded
# ReceiverServer (routing, stealing, shutdown drain), and the serve_tool
# end-to-end smoke — and for the JPEG container and both entropy coders:
# the `codec` label covers every parser suite (test_codec,
# test_codec_robustness, test_restart, test_progressive, test_bitio,
# test_huffman, test_cm_codec, test_fuzz_jpeg), so the one segment reader,
# its hand-built hostile streams and header-field mutations, and the cm fuzz
# sweeps (truncated / bit-flipped cm streams, random range-coder input) run
# under both sanitizers — exactly the kind of parsing code they are for. A
# codec_tool transcode round trip runs as an end-to-end smoke under each
# preset too.
#
# test_plan rides the `concurrency` label: it exercises the compiled
# inference plan (liveness-assigned offsets into per-thread arenas, fused
# kernels, one plan cache shared by every serving worker) from two threads
# sharing one model's plans and under concurrent submits, so ASan/UBSan
# validate the arena slicing and its growth, and TSan that each thread runs
# in its own arena and that workers share one cache and its plans safely.
#
# test_gemm rides it too: its bit-exact sweep of the batched conv forward
# and its concurrent conv calls from pool workers run the per-thread strip
# buffers of PackedA::conv2d_forward under both sanitizers, and its
# byte-pinning test of gemm(), gemm_rows() and PackedA::run()
# (Gemm.EntryPointsBitEqualAcrossBlockEdges) runs their one blocked loop's
# Workspace panels across every K-block, N-block and row-panel edge.
#
# test_serve_anytime and test_tiling ride the same label: the first drives
# the ResultStream channel (bounded drop-oldest buffer, terminal promise)
# and progressive delivery from 3 workers — the producer/consumer pairing
# TSan exists for — and the second fans MCU-aligned tile sub-requests out
# across a 3-worker server and stitches them back under load.
#
# The running batch (core::RunningBatch, one per padded size on each
# worker) is covered under both sanitizers by the step-level batching tests
# of the same label: in test_serve_parallel a request submitted mid-chain
# joins at the next step boundary (MidChainRequestJoinsAtNextBoundary),
# plain and tile requests of two padded sizes share one worker
# (PlainAndTileRequestsOfTwoSizesShareOneWorker) and a lone request on an
# idle worker starts at once (LoneRequestOnIdleWorkerStartsAtOnce); in
# test_serve_anytime a deadline request leaves degraded on its own while
# its batch-mate runs every step (DeadlineRequestLeavesAloneWhileBatchMate-
# RunsOn) and partials follow each request's own steps
# (PartialsFollowEachRequestsOwnSteps). Each checks its images byte for
# byte against the single-request reference, so ASan/UBSan see the
# batch's slot compaction (a leaving request's rows refilled from the
# last one's) and TSan the client threads submitting while the worker
# steps. soak_serve (fault label) adds a byte-exact oracle for every
# complete untiled final under every fault plan.
#
# The `nn` label covers the tensor, op, module, loss, GEMM and plan suites:
# every eager forward and the plan executor run the raw-pointer kernels of
# src/nn/kernels.h, including the activations a producing kernel applies to
# each range its parallel task wrote (conv strips, group-norm slices, linear
# rows) and the fused conv+group-norm that normalizes its own output
# (out == x), so both sanitizers check those buffers alone. It also covers
# test_diffusion and test_core_pipeline, which run the one DDIM loop with
# both denoisers (the eager UNet and the compiled UNet-step plan) and the
# decoder plan, which runs in the same per-thread arena as the step plan.
#
# Both presets compile the fault-injection sites in (DCDIFF_FAULT_INJECTION),
# so the `fault`-labelled stage runs the full scenario suites (injected
# stalls, throws, corruption, clock skew — see DESIGN.md §15) plus the
# soak_serve seed sweep under each sanitizer.
#
# Usage: scripts/sanitize_smoke.sh [tsan|sanitize]   (default: both)
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("${1:-}")
if [[ -z "${presets[0]}" ]]; then
  presets=(sanitize tsan)
fi

jobs=$(nproc 2>/dev/null || echo 2)
for preset in "${presets[@]}"; do
  echo "=== ${preset}: configure + build ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "=== ${preset}: ctest -L concurrency ==="
  ctest --test-dir "build-${preset}" -L concurrency \
        --output-on-failure -j 1
  echo "=== ${preset}: ctest -L nn ==="
  ctest --test-dir "build-${preset}" -L nn \
        --output-on-failure -j 1
  echo "=== ${preset}: ctest -L codec ==="
  ctest --test-dir "build-${preset}" -L codec \
        --output-on-failure -j 1
  echo "=== ${preset}: ctest -L fault ==="
  ctest --test-dir "build-${preset}" -L fault \
        --output-on-failure -j 1
  echo "=== ${preset}: codec_tool transcode smoke ==="
  smoke_dir="build-${preset}/transcode_smoke"
  rm -rf "${smoke_dir}" && mkdir -p "${smoke_dir}"
  "build-${preset}/examples/codec_tool" demo "${smoke_dir}"
  "build-${preset}/examples/codec_tool" encode "${smoke_dir}/demo.ppm" \
      "${smoke_dir}/huff.jpg" 50
  "build-${preset}/examples/codec_tool" transcode "${smoke_dir}/huff.jpg" \
      "${smoke_dir}/cm.jpg"
  "build-${preset}/examples/codec_tool" transcode "${smoke_dir}/cm.jpg" \
      "${smoke_dir}/back.jpg" --to-huffman
  cmp "${smoke_dir}/huff.jpg" "${smoke_dir}/back.jpg"
done
echo "sanitize smoke passed: ${presets[*]}"

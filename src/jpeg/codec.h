// Baseline JPEG codec (ITU-T T.81, sequential DCT) with two entropy coders.
//
// The codec exposes the coefficient domain explicitly: an image is first
// transformed to a `CoeffImage` (quantized DCT coefficients per component),
// which can then be entropy-coded to a JFIF bitstream or manipulated (the
// DC-drop transform in dcdrop.h operates on this representation, exactly as
// the paper's sender does on a standard encoder's output).
//
// Entropy coding is selectable per stream (`EntropyKind`):
//   * kHuffman — standard Annex-K Huffman tables (the interoperable T.81
//     baseline scan).
//   * kCm     — the context-mixing range coder from src/codec: the same
//     integer coefficients, re-entropy-coded with adaptive DCT-domain
//     context models. Decodes bit-identically, spends measurably fewer bits
//     (bench_ablation_coding), and is this repo's private format: the file
//     keeps the JFIF marker skeleton (SOI/APP0/DQT/DRI/SOF0/SOS/EOI) but
//     carries an APP9 "DCMC" marker — version, payload length, CRC-32 —
//     in place of DHT tables, and raw range-coded bytes in place of the
//     Huffman scan. decode_jfif / try_decode_jfif auto-detect the coder
//     from that marker, so receivers need no out-of-band signal. Lossless
//     transcoding between the two coders is `codec_tool transcode`.
//
// Supported: grayscale and color (4:4:4 and 4:2:0), quality-scaled Annex-K
// quantization tables, standard Annex-K Huffman tables. Progressive
// (spectral-selection SOF2) streams live in progressive.h, for both entropy
// kinds. Restart intervals are supported, including decoder-side error
// containment (Huffman scans only; cm streams are integrity-checked whole
// via their CRC instead).
//
// One container reader (jfif.h) walks the markers for decode_jfif, the
// progressive decoder, detect_entropy_kind and is_progressive, under one
// rule set: every segment length >= 2 and inside the buffer; DQT 8-bit,
// table id <= 3, 64 entries inside the segment; DHT class <= 1, id <= 3, at
// most 256 codes inside the segment, DC categories <= 11 and AC sizes <= 10;
// one SOF, precision 8, nonzero size, 1 or 3 components, sampling 1x1 or
// luma 2x2; SOS after SOF, its selectors naming frame components in frame
// order, with defined quant and Huffman tables and a band the frame kind
// supports (baseline 0..63, no successive approximation); DRI of length 4;
// APP9 cm tags framed and versioned. A violation throws std::runtime_error
// (kDataLoss through try_decode_*) naming the segment that broke, e.g.
// "decode_jfif: DQT: 16-bit table"; errors inside the entropy-coded data,
// such as a DC that leaves int16_t, name "scan".
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "image/image.h"
#include "jpeg/quant.h"
#include "support/status.h"

namespace dcdiff::jpeg {

enum class ChromaFormat {
  k444,  // no chroma subsampling
  k420,  // 2x2 chroma subsampling
};

// One component's quantized coefficients, natural (row-major) order per block.
struct CoefComponent {
  int blocks_w = 0;
  int blocks_h = 0;
  std::vector<std::array<int16_t, kBlockSamples>> blocks;

  std::array<int16_t, kBlockSamples>& block(int by, int bx) {
    return blocks[static_cast<size_t>(by) * blocks_w + bx];
  }
  const std::array<int16_t, kBlockSamples>& block(int by, int bx) const {
    return blocks[static_cast<size_t>(by) * blocks_w + bx];
  }
};

// Quantized-coefficient representation of an image.
struct CoeffImage {
  int width = 0;   // original pixel width
  int height = 0;  // original pixel height
  ChromaFormat format = ChromaFormat::k444;
  int quality = 50;
  QuantTable qluma;
  QuantTable qchroma;
  // Restart interval in MCUs (0 = none). When set, the encoder emits
  // DRI/RSTn markers and the decoder contains bitstream errors to the
  // damaged segment instead of losing the rest of the scan.
  int restart_interval = 0;
  std::vector<CoefComponent> comps;  // size 1 (gray) or 3 (Y, Cb, Cr)

  bool gray() const { return comps.size() == 1; }
  const QuantTable& table_for(int comp) const {
    return comp == 0 ? qluma : qchroma;
  }
};

// Color-convert (if RGB), level-shift, block, FDCT, quantize.
CoeffImage forward_transform(const Image& src, int quality,
                             ChromaFormat fmt = ChromaFormat::k444);

// Dequantize, IDCT, level-shift back; returns RGB (or Gray), clamped,
// cropped to the original dimensions.
Image inverse_transform(const CoeffImage& ci);

// Like inverse_transform but *without* the +128 level shift or clamping and
// without converting out of YCbCr: this is the paper's x-tilde, the signed
// AC-only pixel field the receiver sees after IDCT when DC was dropped.
// (For blocks whose DC was retained the true signal minus 128 appears.)
Image tilde_image(const CoeffImage& ci);

// ----- Entropy coding / JFIF container -----

// Scan entropy coder for encode_jfif / encode_progressive.
enum class EntropyKind {
  kHuffman,  // Annex-K Huffman tables (interoperable baseline)
  kCm,       // context-mixing range coder (src/codec; APP9-tagged)
};

// Serializes to a complete JFIF file (SOI..EOI). With kHuffman the file uses
// standard tables; with kCm the scan is range-coded (see header comment).
std::vector<uint8_t> encode_jfif(const CoeffImage& ci,
                                 EntropyKind kind = EntropyKind::kHuffman);

// The entropy coder a file was written with, detected from the APP9 "DCMC"
// or "DCMP" tag ahead of the first SOS. Files without the tag (any
// interoperable JPEG) and files whose header the reader rejects are
// kHuffman; decoding the latter yields the descriptive error.
EntropyKind detect_entropy_kind(const std::vector<uint8_t>& bytes);

// Parses a JFIF file produced by encode_jfif (baseline sequential, either
// entropy kind — auto-detected). Malformed input, a progressive (SOF2)
// frame included, throws std::runtime_error naming the segment.
CoeffImage decode_jfif(const std::vector<uint8_t>& bytes);

// Non-throwing variant for serving boundaries: a malformed bitstream yields
// Status{kDataLoss} (kInvalidArgument for an empty buffer) with the parse
// error as the message, and *out is left untouched. Never throws.
Status try_decode_jfif(const std::vector<uint8_t>& bytes,
                       CoeffImage* out) noexcept;

// Number of bits of entropy-coded data (excludes all headers/markers): the
// quantity compression-ratio experiments compare, isolating coefficient cost
// from fixed container overhead.
size_t entropy_bit_count(const CoeffImage& ci);

// Same, but with per-image optimized Huffman tables (IJG-style two-pass
// optimization; see huffman.h). Quantifies the "better coding techniques"
// headroom the paper's Section V notes is orthogonal to DC dropping.
size_t entropy_bit_count_optimized(const CoeffImage& ci);

// Same quantity for the context-mixing coder: bits of the cm payload for
// these coefficients (excludes markers/framing, like the two above).
size_t entropy_bit_count_cm(const CoeffImage& ci);

// ----- Convenience round trips -----

struct JpegResult {
  std::vector<uint8_t> bytes;  // full JFIF file
  CoeffImage coeffs;
};

JpegResult jpeg_encode(const Image& src, int quality,
                       ChromaFormat fmt = ChromaFormat::k444);
Image jpeg_decode(const std::vector<uint8_t>& bytes);
// encode + decode at the given quality (standard JPEG distortion).
Image jpeg_roundtrip(const Image& src, int quality,
                     ChromaFormat fmt = ChromaFormat::k444);

}  // namespace dcdiff::jpeg

// Progressive JPEG (spectral selection, ITU-T T.81 SOF2) encoder/decoder.
//
// The stream carries one interleaved DC scan followed by per-component AC
// band scans, so a receiver can render a coarse preview from the first scan
// alone. (Conceptually the inverse of the paper's DC-drop: progressive sends
// DC *first* because it carries the gross image; DC-drop omits it entirely
// and re-estimates it.) Successive approximation is not implemented; spectral
// selection uses the standard progressive AC entropy coding with EOB runs.
//
// The coefficient representation is the same CoeffImage as the baseline
// codec, so the two formats are freely interconvertible.
//
// Like the baseline codec, both entropy coders are supported per stream: the
// standard Huffman scans, or the context-mixing range coder (EntropyKind::
// kCm). A cm progressive file carries an APP9 "DCMP" marker and frames each
// scan's range-coded payload with an explicit u32 length + u32 CRC-32 right
// after the SOS header (cm bytes may contain unstuffed 0xFF, so scans cannot
// be delimited by marker scanning). The DC scan is one interleaved stream
// over all components; each AC band scan is its own stream, so previews and
// band-progressive delivery work identically to the Huffman form.
//
// The decoder reads the container with the same segment reader and rules as
// decode_jfif (codec.h) and names the broken segment the same way
// ("decode_progressive: SOS: ..."). Rules only a progressive frame has: SOF2
// (SOF0 is rejected), no restart interval, a DC scan's band is 0..0 and an
// AC scan's 1 <= Ss <= Se <= 63 with one component, Ah = Al = 0.
#pragma once

#include <cstdint>
#include <vector>

#include "jpeg/codec.h"
#include "support/status.h"

namespace dcdiff::jpeg {

// Spectral bands used for the AC scans (after the DC scan). Each entry is an
// inclusive [ss, se] zigzag range; bands must tile [1, 63].
struct ProgressiveConfig {
  std::vector<std::pair<int, int>> ac_bands = {{1, 5}, {6, 63}};
};

// Serializes to a progressive JFIF file (SOF2, multiple scans).
std::vector<uint8_t> encode_progressive(
    const CoeffImage& ci, const ProgressiveConfig& cfg = ProgressiveConfig(),
    EntropyKind kind = EntropyKind::kHuffman);

// Parses a progressive file produced by encode_progressive (either entropy
// kind — auto-detected from the APP9 marker).
CoeffImage decode_progressive(const std::vector<uint8_t>& bytes);

// Non-throwing variant mirroring try_decode_jfif: malformed bitstreams yield
// Status{kDataLoss} (kInvalidArgument for an empty buffer). Never throws.
Status try_decode_progressive(const std::vector<uint8_t>& bytes,
                              CoeffImage* out) noexcept;

// Decodes only the first (DC) scan: the coarse preview a progressive
// receiver can show immediately. AC coefficients are zero.
CoeffImage decode_progressive_preview(const std::vector<uint8_t>& bytes);

// True if the frame header is SOF2. The segment reader finds it, so marker
// bytes inside APPn/COM payloads do not count; a malformed header is false.
bool is_progressive(const std::vector<uint8_t>& bytes);

}  // namespace dcdiff::jpeg

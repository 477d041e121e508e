// The JFIF container, shared by the baseline (codec.cpp) and progressive
// (progressive.cpp) codecs. Internal to src/jpeg.
//
// Reader: the one marker walker. It checks every segment length (>= 2 and
// inside the buffer) and every segment body against one rule set, keeps the
// header state (frame, quant tables, Huffman specs, restart interval, APP9
// cm tag) and hands each SOS header to the caller's entropy decoder, then
// resumes after the scan. A violation throws std::runtime_error whose message
// names the caller and the segment that broke: "decode_jfif: DQT: 16-bit
// table". The entropy-coded data is named "scan".
//
// Writer: the marker, table, frame and scan headers both encoders emit, plus
// the coefficient helpers both entropy coders share (T.81 F.1.2 magnitude
// categories, the MCU geometry, the cm coder's plane views).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "codec/dctmodel.h"
#include "jpeg/codec.h"
#include "jpeg/huffman.h"

namespace dcdiff::jpeg::jfif {

constexpr uint8_t kSOF0 = 0xC0;  // baseline sequential DCT
constexpr uint8_t kSOF2 = 0xC2;  // progressive DCT

// APP9 tags of the cm coder, "DCM" + this byte: "DCMC" (baseline, one scan,
// payload length and CRC-32 in the tag) and "DCMP" (progressive, each scan
// framed as u32 length | u32 CRC-32 | payload after its SOS header).
constexpr uint8_t kCmBaselineTag = 'C';
constexpr uint8_t kCmProgressiveTag = 'P';

struct Frame {
  uint8_t sof = 0;  // kSOF0 or kSOF2; 0 until the SOF segment is read
  int width = 0;
  int height = 0;
  int ncomp = 0;
  bool sub420 = false;          // luma sampled 2x2 (4:2:0)
  std::array<uint8_t, 3> id{};  // component identifiers
  std::array<int, 3> qtab{};    // quant table id per component
};

struct Scan {
  int ns = 0;
  std::array<int, 3> comp{};  // frame component index, in frame order
  std::array<int, 3> dc{};    // Huffman table ids (placeholders when cm)
  std::array<int, 3> ac{};
  int ss = 0;
  int se = 0;
  size_t data = 0;  // offset of the first entropy-coded byte
};

class Reader {
 public:
  // `who` prefixes every error; `sof` is the frame kind the caller decodes
  // (the other one is rejected, naming SOF), or 0 to accept either.
  Reader(const std::vector<uint8_t>& bytes, const char* who, uint8_t sof);

  // Reads header segments up to the next SOS and returns true with its
  // checked header in *scan, or false at EOI. Throws on any violation,
  // including input that ends without EOI.
  bool next_scan(Scan* scan);
  // Continues the walk at `pos`, the first byte after a scan's data.
  void resume(size_t pos);

  const Frame& frame() const { return frame_; }
  // kCmBaselineTag / kCmProgressiveTag, or 0 for a Huffman stream.
  uint8_t cm_tag() const { return cm_tag_; }
  const HuffSpec& dc_spec(int id) const {
    return dc_[static_cast<size_t>(id)];
  }
  const HuffSpec& ac_spec(int id) const {
    return ac_[static_cast<size_t>(id)];
  }

  // The image the scans fill: zeroed planes sized by the frame, the quant
  // tables its components use and the restart interval.
  CoeffImage image() const;
  // The cm payload of `scan` as {offset, length}, checked against its
  // length and CRC-32 (from the DCMC tag, or the DCMP scan prefix).
  std::pair<size_t, size_t> cm_payload(const Scan& scan) const;

  [[noreturn]] void fail(const std::string& segment,
                         const std::string& what) const;

 private:
  void read_dqt(size_t at, size_t end);
  void read_dht(size_t at, size_t end);
  void read_sof(uint8_t code, size_t at, size_t end);
  void read_app9(size_t at, size_t end);
  void read_sos(size_t at, size_t end, Scan* scan);
  uint32_t u32(size_t at) const;

  const std::vector<uint8_t>& bytes_;
  const char* who_;
  uint8_t want_sof_;
  size_t pos_ = 0;
  std::string last_ = "SOI";  // the segment the walk last finished

  Frame frame_;
  std::array<QuantTable, 4> qtab_{};
  std::array<bool, 4> qtab_seen_{};
  std::array<HuffSpec, 4> dc_{};
  std::array<HuffSpec, 4> ac_{};
  std::array<bool, 4> dc_seen_{};
  std::array<bool, 4> ac_seen_{};
  int restart_interval_ = 0;
  uint8_t cm_tag_ = 0;
  uint32_t cm_len_ = 0;
  uint32_t cm_crc_ = 0;
};

// ----- Writer -----

void put_marker(std::vector<uint8_t>& out, uint8_t code);
void put_u16(std::vector<uint8_t>& out, uint16_t v);
void put_u32(std::vector<uint8_t>& out, uint32_t v);
// The APP9 cm tag through its version byte; a DCMC tag's caller appends the
// payload length and CRC-32.
void put_cm_tag(std::vector<uint8_t>& out, uint8_t tag);
// Everything between the APPn segments and the first SOS: DQT, DRI when
// `restart_interval` > 0, SOF `code` (component ids 1..n, luma 2x2 in
// 4:2:0), and with `huffman` the Annex-K DHTs. Luma uses tables 0, chroma
// tables 1.
void put_frame_header(std::vector<uint8_t>& out, const CoeffImage& ci,
                      uint8_t code, int restart_interval, bool huffman);
// SOS for frame components [first, first + n) over the band [ss, se], no
// successive approximation. Each component's Td/Ta byte is `luma_tables`
// for component 0 and `chroma_tables` for the others.
void put_sos(std::vector<uint8_t>& out, int first, int n, uint8_t luma_tables,
             uint8_t chroma_tables, int ss, int se);

// ----- Coefficient helpers shared by both entropy coders -----

// Magnitude category (number of bits) of a coefficient value.
int bit_category(int v);
// T.81 magnitude bits: negative values in one's complement.
uint32_t magnitude_bits(int v, int category);
int extend_value(uint32_t bits, int category);
// The DC predictor plus a decoded difference. Throws when the sum does not
// fit the int16_t a CoefComponent block stores.
int16_t next_dc(int& pred, int diff);
// Writes `symbol`'s code, then the `size` magnitude bits of `value`.
void put_symbol(BitWriter& bw, const HuffEncoder& enc, uint8_t symbol,
                int value, int size);

// The AC symbols of the zigzag band [ss, se] of `block`, in coding order:
// fn(symbol, value, size) per run/size symbol, ZRL and closing EOB, where
// `size` magnitude bits of `value` follow the symbol (none for ZRL, EOB).
template <typename Fn>
void for_each_ac_symbol(const std::array<int16_t, kBlockSamples>& block,
                        int ss, int se, Fn&& fn) {
  const auto& zz = zigzag_order();
  int run = 0;
  for (int k = ss; k <= se; ++k) {
    const int v = block[zz[k]];
    if (v == 0) {
      ++run;
      continue;
    }
    for (; run >= 16; run -= 16) fn(uint8_t{0xF0}, 0, 0);  // ZRL
    const int size = bit_category(v);
    fn(static_cast<uint8_t>((run << 4) | size), v, size);
    run = 0;
  }
  if (run > 0) fn(uint8_t{0x00}, 0, 0);  // EOB
}

struct ScanGeometry {
  int mcus_w = 0;
  int mcus_h = 0;
  // Per component, the (h, v) sampling factors within an MCU.
  std::vector<std::pair<int, int>> sampling;
};
ScanGeometry scan_geometry(const CoeffImage& ci);

// The coefficient planes as codec-layer spans (one flat block-major buffer
// per component), read-only or as decode targets.
std::vector<codec::PlaneIo> cm_planes(const CoeffImage& ci);
std::vector<codec::PlaneIo> cm_planes_mut(CoeffImage& ci);

}  // namespace dcdiff::jpeg::jfif

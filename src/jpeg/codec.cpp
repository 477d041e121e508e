#include "jpeg/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "codec/crc32.h"
#include "testing/fault.h"
#include "codec/dctmodel.h"
#include "jpeg/bitio.h"
#include "jpeg/dct.h"
#include "jpeg/huffman.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcdiff::jpeg {
namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Magnitude category (number of bits) of a coefficient value.
int bit_category(int v) {
  int a = std::abs(v);
  int s = 0;
  while (a > 0) {
    a >>= 1;
    ++s;
  }
  return s;
}

// T.81 magnitude bits: negative values are represented in one's complement.
uint32_t magnitude_bits(int v, int category) {
  if (v < 0) v += (1 << category) - 1;
  return static_cast<uint32_t>(v);
}

int extend_value(uint32_t bits, int category) {
  if (category == 0) return 0;
  const int v = static_cast<int>(bits);
  if (v < (1 << (category - 1))) return v - (1 << category) + 1;
  return v;
}

// Extracts a level-shifted 8x8 block (replicate padding at edges).
void extract_block(const Image& img, int c, int y0, int x0, PixelBlock& out) {
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) {
      out[y * kBlockSize + x] = img.at_clamped(c, y0 + y, x0 + x) - 128.0f;
    }
  }
}

struct ScanGeometry {
  int mcus_w = 0;
  int mcus_h = 0;
  // Per component, the (h, v) sampling factors within an MCU.
  std::vector<std::pair<int, int>> sampling;
};

ScanGeometry scan_geometry(const CoeffImage& ci) {
  ScanGeometry g;
  if (ci.gray()) {
    g.mcus_w = ci.comps[0].blocks_w;
    g.mcus_h = ci.comps[0].blocks_h;
    g.sampling = {{1, 1}};
  } else if (ci.format == ChromaFormat::k444) {
    g.mcus_w = ci.comps[0].blocks_w;
    g.mcus_h = ci.comps[0].blocks_h;
    g.sampling = {{1, 1}, {1, 1}, {1, 1}};
  } else {
    g.mcus_w = ci.comps[0].blocks_w / 2;
    g.mcus_h = ci.comps[0].blocks_h / 2;
    g.sampling = {{2, 2}, {1, 1}, {1, 1}};
  }
  return g;
}

// Encodes one block; dc_pred is updated. When `bw` is null only counts bits
// via `bits_out`.
void encode_block(const std::array<int16_t, kBlockSamples>& block,
                  const HuffEncoder& dc_enc, const HuffEncoder& ac_enc,
                  int& dc_pred, BitWriter& bw) {
  const auto& zz = zigzag_order();
  // DC: DPCM.
  const int diff = block[0] - dc_pred;
  dc_pred = block[0];
  const int s = bit_category(diff);
  dc_enc.encode(bw, static_cast<uint8_t>(s));
  if (s > 0) bw.put_bits(magnitude_bits(diff, s), s);
  // AC: run-length of zeros + category.
  int run = 0;
  for (int k = 1; k < kBlockSamples; ++k) {
    const int v = block[zz[k]];
    if (v == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      ac_enc.encode(bw, 0xF0);  // ZRL
      run -= 16;
    }
    const int cat = bit_category(v);
    ac_enc.encode(bw, static_cast<uint8_t>((run << 4) | cat));
    bw.put_bits(magnitude_bits(v, cat), cat);
    run = 0;
  }
  if (run > 0) ac_enc.encode(bw, 0x00);  // EOB
}

void decode_block(std::array<int16_t, kBlockSamples>& block,
                  const HuffDecoder& dc_dec, const HuffDecoder& ac_dec,
                  int& dc_pred, BitReader& br) {
  const auto& zz = zigzag_order();
  block.fill(0);
  const int s = dc_dec.decode(br);
  const int diff = s > 0 ? extend_value(br.get_bits(s), s) : 0;
  dc_pred += diff;
  block[0] = static_cast<int16_t>(dc_pred);
  int k = 1;
  while (k < kBlockSamples) {
    const uint8_t sym = ac_dec.decode(br);
    if (sym == 0x00) break;  // EOB
    const int run = sym >> 4;
    const int cat = sym & 0x0F;
    if (cat == 0) {
      if (run != 15) throw std::runtime_error("decode_block: bad AC symbol");
      k += 16;  // ZRL
      continue;
    }
    k += run;
    if (k >= kBlockSamples) throw std::runtime_error("decode_block: overrun");
    block[zz[k]] = static_cast<int16_t>(extend_value(br.get_bits(cat), cat));
    ++k;
  }
}

std::vector<uint8_t> encode_scan(const CoeffImage& ci) {
  DCDIFF_TRACE_SPAN("jpeg.encode_scan");
  static obs::Histogram& lat = obs::histogram("jpeg.encode_scan_seconds");
  obs::ScopedLatency timer(lat);
  const HuffEncoder dc_luma(std_dc_luma()), ac_luma(std_ac_luma());
  const HuffEncoder dc_chroma(std_dc_chroma()), ac_chroma(std_ac_chroma());
  const ScanGeometry g = scan_geometry(ci);
  std::vector<int> dc_pred(ci.comps.size(), 0);
  std::vector<uint8_t> out;
  BitWriter bw;
  int mcus_since_restart = 0;
  int restart_index = 0;
  for (int my = 0; my < g.mcus_h; ++my) {
    for (int mx = 0; mx < g.mcus_w; ++mx) {
      if (ci.restart_interval > 0 &&
          mcus_since_restart == ci.restart_interval) {
        // Close the segment on a byte boundary, emit RSTn, reset DPCM.
        const std::vector<uint8_t> seg = bw.finish();
        out.insert(out.end(), seg.begin(), seg.end());
        out.push_back(0xFF);
        out.push_back(static_cast<uint8_t>(0xD0 + (restart_index & 7)));
        ++restart_index;
        bw = BitWriter();
        std::fill(dc_pred.begin(), dc_pred.end(), 0);
        mcus_since_restart = 0;
      }
      for (size_t c = 0; c < ci.comps.size(); ++c) {
        const auto [h, v] = g.sampling[c];
        const HuffEncoder& dce = (c == 0) ? dc_luma : dc_chroma;
        const HuffEncoder& ace = (c == 0) ? ac_luma : ac_chroma;
        for (int bv = 0; bv < v; ++bv) {
          for (int bh = 0; bh < h; ++bh) {
            encode_block(ci.comps[c].block(my * v + bv, mx * h + bh), dce,
                         ace, dc_pred[c], bw);
          }
        }
      }
      ++mcus_since_restart;
    }
  }
  const std::vector<uint8_t> tail = bw.finish();
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

// ----- JFIF marker helpers -----

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v & 0xFF));
}

void put_marker(std::vector<uint8_t>& out, uint8_t code) {
  out.push_back(0xFF);
  out.push_back(code);
}

void put_dqt(std::vector<uint8_t>& out, const QuantTable& qt, int id) {
  put_marker(out, 0xDB);
  put_u16(out, 2 + 1 + 64);
  out.push_back(static_cast<uint8_t>(id));  // 8-bit precision, table id
  const auto& zz = zigzag_order();
  for (int k = 0; k < kBlockSamples; ++k) {
    out.push_back(static_cast<uint8_t>(qt.q[zz[k]]));
  }
}

void put_dht(std::vector<uint8_t>& out, const HuffSpec& spec, int cls,
             int id) {
  put_marker(out, 0xC4);
  put_u16(out, static_cast<uint16_t>(2 + 1 + 16 + spec.vals.size()));
  out.push_back(static_cast<uint8_t>((cls << 4) | id));
  for (int i = 0; i < 16; ++i) out.push_back(spec.bits[i]);
  out.insert(out.end(), spec.vals.begin(), spec.vals.end());
}

// ----- context-mixing (cm) scan support -----

// APP9 marker payload tagging a cm-coded baseline file: magic, version,
// exact payload byte count (cm bytes may contain 0xFF, so the scan cannot be
// delimited by marker search), and a CRC-32 over the payload so truncation /
// corruption is detected before the model decodes garbage.
constexpr uint8_t kCmMagic[4] = {'D', 'C', 'M', 'C'};
constexpr uint8_t kCmVersion = 1;

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void put_cm_app9(std::vector<uint8_t>& out,
                 const std::vector<uint8_t>& payload) {
  put_marker(out, 0xE9);
  put_u16(out, 2 + 4 + 1 + 4 + 4);
  out.insert(out.end(), kCmMagic, kCmMagic + 4);
  out.push_back(kCmVersion);
  put_u32(out, static_cast<uint32_t>(payload.size()));
  uint32_t crc = codec::crc32(payload.data(), payload.size());
  // Fault site: a corrupted CRC word must make the decoder reject the cm
  // payload with a typed Status, never decode garbage coefficients.
  if (DCDIFF_FAULT_POINT("codec.crc.corrupt")) crc ^= 0xDEADBEEFu;
  put_u32(out, crc);
}

// The coefficient planes as codec-layer spans. CoefComponent stores blocks
// as a contiguous vector of 64-sample arrays, so each plane is one flat
// block-major buffer.
std::vector<codec::PlaneIo> cm_planes(const CoeffImage& ci) {
  std::vector<codec::PlaneIo> planes;
  for (size_t c = 0; c < ci.comps.size(); ++c) {
    codec::PlaneIo p;
    p.blocks_w = ci.comps[c].blocks_w;
    p.blocks_h = ci.comps[c].blocks_h;
    p.chroma = c != 0;
    p.src = ci.comps[c].blocks.empty() ? nullptr
                                       : ci.comps[c].blocks[0].data();
    planes.push_back(p);
  }
  return planes;
}

std::vector<codec::PlaneIo> cm_planes_mut(CoeffImage& ci) {
  std::vector<codec::PlaneIo> planes = cm_planes(ci);
  for (size_t c = 0; c < ci.comps.size(); ++c) {
    planes[c].src = nullptr;
    planes[c].dst = ci.comps[c].blocks.empty()
                        ? nullptr
                        : ci.comps[c].blocks[0].data();
  }
  return planes;
}

}  // namespace

CoeffImage forward_transform(const Image& src, int quality,
                             ChromaFormat fmt) {
  DCDIFF_TRACE_SPAN("jpeg.forward_transform");
  static obs::Histogram& lat =
      obs::histogram("jpeg.forward_transform_seconds");
  obs::ScopedLatency timer(lat);
  Image ycc = src;
  if (src.color_space() == ColorSpace::kRGB) ycc = rgb_to_ycbcr(src);
  const bool gray = ycc.color_space() == ColorSpace::kGray;

  CoeffImage ci;
  ci.width = src.width();
  ci.height = src.height();
  ci.format = gray ? ChromaFormat::k444 : fmt;
  ci.quality = quality;
  ci.qluma = luma_table(quality);
  ci.qchroma = chroma_table(quality);

  const int mcu = (!gray && fmt == ChromaFormat::k420) ? 16 : 8;
  const Image padded = pad_to_multiple(ycc, mcu);

  std::vector<Image> planes;
  {
    Image y(padded.width(), padded.height(), ColorSpace::kGray);
    y.plane(0) = padded.plane(0);
    planes.push_back(std::move(y));
    if (!gray) {
      Image cb(padded.width(), padded.height(), ColorSpace::kGray);
      Image cr(padded.width(), padded.height(), ColorSpace::kGray);
      cb.plane(0) = padded.plane(1);
      cr.plane(0) = padded.plane(2);
      if (fmt == ChromaFormat::k420) {
        cb = downscale2x(cb);
        cr = downscale2x(cr);
      }
      planes.push_back(std::move(cb));
      planes.push_back(std::move(cr));
    }
  }

  for (size_t c = 0; c < planes.size(); ++c) {
    const Image& plane = planes[c];
    CoefComponent comp;
    comp.blocks_w = ceil_div(plane.width(), kBlockSize);
    comp.blocks_h = ceil_div(plane.height(), kBlockSize);
    comp.blocks.resize(static_cast<size_t>(comp.blocks_w) * comp.blocks_h);
    const QuantTable& qt = (c == 0) ? ci.qluma : ci.qchroma;
    PixelBlock px;
    CoefBlock cf;
    for (int by = 0; by < comp.blocks_h; ++by) {
      for (int bx = 0; bx < comp.blocks_w; ++bx) {
        extract_block(plane, 0, by * kBlockSize, bx * kBlockSize, px);
        fdct8x8(px, cf);
        quantize(cf, qt, comp.block(by, bx));
      }
    }
    ci.comps.push_back(std::move(comp));
  }
  return ci;
}

namespace {

// Dequantize + IDCT one component to a plane image (no level shift applied;
// the caller decides).
Image component_to_plane(const CoeffImage& ci, size_t c, bool level_shift) {
  const CoefComponent& comp = ci.comps[c];
  Image plane(comp.blocks_w * kBlockSize, comp.blocks_h * kBlockSize,
              ColorSpace::kGray);
  const QuantTable& qt = ci.table_for(static_cast<int>(c));
  CoefBlock cf;
  PixelBlock px;
  for (int by = 0; by < comp.blocks_h; ++by) {
    for (int bx = 0; bx < comp.blocks_w; ++bx) {
      dequantize(comp.block(by, bx), qt, cf);
      idct8x8(cf, px);
      for (int y = 0; y < kBlockSize; ++y) {
        for (int x = 0; x < kBlockSize; ++x) {
          plane.at(0, by * kBlockSize + y, bx * kBlockSize + x) =
              px[y * kBlockSize + x] + (level_shift ? 128.0f : 0.0f);
        }
      }
    }
  }
  return plane;
}

}  // namespace

Image inverse_transform(const CoeffImage& ci) {
  DCDIFF_TRACE_SPAN("jpeg.inverse_transform");
  static obs::Histogram& lat =
      obs::histogram("jpeg.inverse_transform_seconds");
  obs::ScopedLatency timer(lat);
  Image y = component_to_plane(ci, 0, /*level_shift=*/true);
  if (ci.gray()) {
    Image out = crop(y, 0, 0, ci.width, ci.height);
    out.clamp();
    return out;
  }
  Image cb = component_to_plane(ci, 1, true);
  Image cr = component_to_plane(ci, 2, true);
  if (ci.format == ChromaFormat::k420) {
    cb = upscale2x(cb, y.width(), y.height());
    cr = upscale2x(cr, y.width(), y.height());
  }
  Image ycc(y.width(), y.height(), ColorSpace::kYCbCr);
  ycc.plane(0) = y.plane(0);
  ycc.plane(1) = cb.plane(0);
  ycc.plane(2) = cr.plane(0);
  Image rgb = ycbcr_to_rgb(ycc);
  return crop(rgb, 0, 0, ci.width, ci.height);
}

Image tilde_image(const CoeffImage& ci) {
  Image y = component_to_plane(ci, 0, /*level_shift=*/false);
  if (ci.gray()) return crop(y, 0, 0, ci.width, ci.height);
  Image cb = component_to_plane(ci, 1, false);
  Image cr = component_to_plane(ci, 2, false);
  if (ci.format == ChromaFormat::k420) {
    cb = upscale2x(cb, y.width(), y.height());
    cr = upscale2x(cr, y.width(), y.height());
  }
  Image out(y.width(), y.height(), ColorSpace::kYCbCr);
  out.plane(0) = y.plane(0);
  out.plane(1) = cb.plane(0);
  out.plane(2) = cr.plane(0);
  return crop(out, 0, 0, ci.width, ci.height);
}

std::vector<uint8_t> encode_jfif(const CoeffImage& ci, EntropyKind kind) {
  DCDIFF_TRACE_SPAN("jpeg.encode_jfif");
  static obs::Histogram& lat = obs::histogram("jpeg.encode_jfif_seconds");
  obs::ScopedLatency timer(lat);
  const bool cm = kind == EntropyKind::kCm;
  // The cm scan is produced up front: its APP9 marker carries the payload
  // length and CRC, which must precede the scan in the file.
  std::vector<uint8_t> cm_payload;
  if (cm) cm_payload = codec::encode_planes(cm_planes(ci), 0, 63);

  std::vector<uint8_t> out;
  put_marker(out, 0xD8);  // SOI
  // APP0 / JFIF header.
  put_marker(out, 0xE0);
  put_u16(out, 16);
  const char jfif[5] = {'J', 'F', 'I', 'F', '\0'};
  out.insert(out.end(), jfif, jfif + 5);
  out.push_back(1);
  out.push_back(1);  // version 1.1
  out.push_back(0);  // aspect units
  put_u16(out, 1);
  put_u16(out, 1);
  out.push_back(0);
  out.push_back(0);  // no thumbnail

  if (cm) put_cm_app9(out, cm_payload);

  put_dqt(out, ci.qluma, 0);
  if (!ci.gray()) put_dqt(out, ci.qchroma, 1);

  if (ci.restart_interval > 0) {  // DRI
    put_marker(out, 0xDD);
    put_u16(out, 4);
    put_u16(out, static_cast<uint16_t>(ci.restart_interval));
  }

  // SOF0.
  put_marker(out, 0xC0);
  const int ncomp = static_cast<int>(ci.comps.size());
  put_u16(out, static_cast<uint16_t>(8 + 3 * ncomp));
  out.push_back(8);  // precision
  put_u16(out, static_cast<uint16_t>(ci.height));
  put_u16(out, static_cast<uint16_t>(ci.width));
  out.push_back(static_cast<uint8_t>(ncomp));
  const bool sub420 = !ci.gray() && ci.format == ChromaFormat::k420;
  for (int c = 0; c < ncomp; ++c) {
    out.push_back(static_cast<uint8_t>(c + 1));  // component id
    const int hv = (c == 0 && sub420) ? 0x22 : 0x11;
    out.push_back(static_cast<uint8_t>(hv));
    out.push_back(static_cast<uint8_t>(c == 0 ? 0 : 1));  // quant table id
  }

  if (!cm) {  // cm streams carry no Huffman tables
    put_dht(out, std_dc_luma(), 0, 0);
    put_dht(out, std_ac_luma(), 1, 0);
    if (!ci.gray()) {
      put_dht(out, std_dc_chroma(), 0, 1);
      put_dht(out, std_ac_chroma(), 1, 1);
    }
  }

  // SOS.
  put_marker(out, 0xDA);
  put_u16(out, static_cast<uint16_t>(6 + 2 * ncomp));
  out.push_back(static_cast<uint8_t>(ncomp));
  for (int c = 0; c < ncomp; ++c) {
    out.push_back(static_cast<uint8_t>(c + 1));
    out.push_back(static_cast<uint8_t>(cm || c == 0 ? 0x00 : 0x11));
  }
  out.push_back(0);     // spectral start
  out.push_back(63);    // spectral end
  out.push_back(0);     // successive approx

  const size_t scan_begin = out.size();
  if (cm) {
    out.insert(out.end(), cm_payload.begin(), cm_payload.end());
  } else {
    const std::vector<uint8_t> scan = encode_scan(ci);
    out.insert(out.end(), scan.begin(), scan.end());
  }
  // Fault sites at the encode boundary: flip one seeded bit inside the
  // entropy-coded scan, or truncate the scan to a seeded fraction (param in
  // (0,1), default half). Decoding the result must yield either a valid
  // image or a typed Status — anything else is a robustness bug.
  if (out.size() > scan_begin) {
    if (DCDIFF_FAULT_POINT("codec.encode.bitflip")) {
      const size_t off =
          scan_begin + static_cast<size_t>(DCDIFF_FAULT_RAND(
                           "codec.encode.bitflip", out.size() - scan_begin));
      out[off] ^= static_cast<uint8_t>(
          1u << DCDIFF_FAULT_RAND("codec.encode.bitflip", 8));
    }
    double keep = 0;
    if (DCDIFF_FAULT_POINT_P("codec.encode.truncate", &keep)) {
      if (keep <= 0.0 || keep >= 1.0) keep = 0.5;
      out.resize(scan_begin +
                 static_cast<size_t>(
                     static_cast<double>(out.size() - scan_begin) * keep));
    }
  }
  put_marker(out, 0xD9);  // EOI
  static obs::Counter& images = obs::counter("jpeg.encode.images");
  static obs::Counter& bytes_out = obs::counter("jpeg.encode.bytes_out");
  static obs::Counter& cm_images = obs::counter("jpeg.encode.cm_images");
  images.inc();
  if (cm) cm_images.inc();
  bytes_out.inc(out.size());
  return out;
}

size_t entropy_bit_count(const CoeffImage& ci) {
  DCDIFF_TRACE_SPAN("jpeg.entropy_bit_count");
  static obs::Histogram& lat =
      obs::histogram("jpeg.entropy_bit_count_seconds");
  obs::ScopedLatency timer(lat);
  const HuffEncoder dc_luma(std_dc_luma()), ac_luma(std_ac_luma());
  const HuffEncoder dc_chroma(std_dc_chroma()), ac_chroma(std_ac_chroma());
  const ScanGeometry g = scan_geometry(ci);
  std::vector<int> dc_pred(ci.comps.size(), 0);
  BitWriter bw;
  for (int my = 0; my < g.mcus_h; ++my) {
    for (int mx = 0; mx < g.mcus_w; ++mx) {
      for (size_t c = 0; c < ci.comps.size(); ++c) {
        const auto [h, v] = g.sampling[c];
        const HuffEncoder& dce = (c == 0) ? dc_luma : dc_chroma;
        const HuffEncoder& ace = (c == 0) ? ac_luma : ac_chroma;
        for (int bv = 0; bv < v; ++bv) {
          for (int bh = 0; bh < h; ++bh) {
            encode_block(ci.comps[c].block(my * v + bv, mx * h + bh), dce,
                         ace, dc_pred[c], bw);
          }
        }
      }
    }
  }
  return bw.bit_count();
}

namespace {

// Walks the scan in MCU order and reports every (is_dc, is_luma, symbol,
// magnitude-bit-count) triple the entropy coder would emit. Shared by the
// optimized-table bit counter (two passes: gather stats, then cost).
template <typename Fn>
void for_each_symbol(const CoeffImage& ci, Fn&& fn) {
  const auto& zz = zigzag_order();
  const ScanGeometry g = scan_geometry(ci);
  std::vector<int> dc_pred(ci.comps.size(), 0);
  for (int my = 0; my < g.mcus_h; ++my) {
    for (int mx = 0; mx < g.mcus_w; ++mx) {
      for (size_t c = 0; c < ci.comps.size(); ++c) {
        const auto [h, v] = g.sampling[c];
        const bool luma = c == 0;
        for (int bv = 0; bv < v; ++bv) {
          for (int bh = 0; bh < h; ++bh) {
            const auto& block = ci.comps[c].block(my * v + bv, mx * h + bh);
            const int diff = block[0] - dc_pred[c];
            dc_pred[c] = block[0];
            const int s = bit_category(diff);
            fn(true, luma, static_cast<uint8_t>(s), s);
            int run = 0;
            for (int k = 1; k < kBlockSamples; ++k) {
              const int val = block[zz[k]];
              if (val == 0) {
                ++run;
                continue;
              }
              while (run >= 16) {
                fn(false, luma, static_cast<uint8_t>(0xF0), 0);
                run -= 16;
              }
              const int cat = bit_category(val);
              fn(false, luma, static_cast<uint8_t>((run << 4) | cat), cat);
              run = 0;
            }
            if (run > 0) fn(false, luma, static_cast<uint8_t>(0x00), 0);
          }
        }
      }
    }
  }
}

}  // namespace

size_t entropy_bit_count_optimized(const CoeffImage& ci) {
  std::array<std::array<uint64_t, 256>, 4> freq{};  // dc/ac x luma/chroma
  auto table_index = [](bool is_dc, bool is_luma) {
    return (is_dc ? 0 : 2) + (is_luma ? 0 : 1);
  };
  for_each_symbol(ci, [&](bool is_dc, bool is_luma, uint8_t sym, int) {
    ++freq[static_cast<size_t>(table_index(is_dc, is_luma))][sym];
  });
  std::array<std::unique_ptr<HuffEncoder>, 4> encoders;
  for (int i = 0; i < 4; ++i) {
    bool any = false;
    for (uint64_t f : freq[static_cast<size_t>(i)]) any = any || f > 0;
    if (any) {
      encoders[static_cast<size_t>(i)] = std::make_unique<HuffEncoder>(
          build_optimized_spec(freq[static_cast<size_t>(i)]));
    }
  }
  size_t bits = 0;
  for_each_symbol(ci, [&](bool is_dc, bool is_luma, uint8_t sym,
                          int extra_bits) {
    const auto& enc = encoders[static_cast<size_t>(table_index(is_dc,
                                                               is_luma))];
    bits += static_cast<size_t>(enc->code_length(sym)) +
            static_cast<size_t>(extra_bits);
  });
  return bits;
}

namespace {

struct ParsedFrame {
  int width = 0, height = 0;
  int ncomp = 0;
  bool sub420 = false;
  std::array<QuantTable, 4> qtabs{};
  std::array<bool, 4> qtab_seen{};
  std::array<HuffSpec, 4> dc_specs{};  // by table id
  std::array<HuffSpec, 4> ac_specs{};
  std::array<int, 3> comp_qtab{};      // quant table id per component
  std::array<int, 3> comp_dc{};        // DC huff table id per component
  std::array<int, 3> comp_ac{};
  std::array<bool, 4> dc_seen{};
  std::array<bool, 4> ac_seen{};
  bool sof_seen = false;
  int restart_interval = 0;
  // APP9 "DCMC" (context-mixing scan) metadata; cm==false means Huffman.
  bool cm = false;
  uint8_t cm_version = 0;
  uint32_t cm_len = 0;
  uint32_t cm_crc = 0;
};

uint16_t read_u16(const std::vector<uint8_t>& d, size_t& p) {
  if (p + 2 > d.size()) throw std::runtime_error("decode_jfif: truncated");
  const uint16_t v = static_cast<uint16_t>((d[p] << 8) | d[p + 1]);
  p += 2;
  return v;
}

}  // namespace

Status try_decode_jfif(const std::vector<uint8_t>& bytes,
                       CoeffImage* out) noexcept {
  if (out == nullptr) {
    return Status::invalid_argument("try_decode_jfif: null output");
  }
  if (bytes.empty()) {
    return Status::invalid_argument("try_decode_jfif: empty buffer");
  }
  try {
    *out = decode_jfif(bytes);
  } catch (const std::exception& e) {
    static obs::Counter& rejected = obs::counter("jpeg.decode.rejected");
    rejected.inc();
    return Status::data_loss(e.what());
  }
  return Status::ok();
}

CoeffImage decode_jfif(const std::vector<uint8_t>& bytes) {
  DCDIFF_TRACE_SPAN("jpeg.decode_jfif");
  static obs::Histogram& lat = obs::histogram("jpeg.decode_jfif_seconds");
  obs::ScopedLatency timer(lat);
  static obs::Counter& images = obs::counter("jpeg.decode.images");
  static obs::Counter& bytes_in = obs::counter("jpeg.decode.bytes_in");
  images.inc();
  bytes_in.inc(bytes.size());
  size_t p = 0;
  if (bytes.size() < 4 || bytes[0] != 0xFF || bytes[1] != 0xD8) {
    throw std::runtime_error("decode_jfif: missing SOI");
  }
  p = 2;
  ParsedFrame fr;
  size_t scan_start = 0;

  while (p + 4 <= bytes.size()) {
    if (bytes[p] != 0xFF) throw std::runtime_error("decode_jfif: bad marker");
    const uint8_t code = bytes[p + 1];
    p += 2;
    if (code == 0xD9) break;  // EOI before scan: empty
    size_t seg_len_pos = p;
    const uint16_t len = read_u16(bytes, p);
    const size_t seg_end = seg_len_pos + len;
    if (seg_end > bytes.size()) throw std::runtime_error("decode_jfif: len");

    // Bounds-checked segment byte reader: corrupted length fields and
    // truncated segments must fail loudly, never read out of range.
    auto next_byte = [&bytes, &p, seg_end](const char* what) -> uint8_t {
      if (p >= seg_end || p >= bytes.size()) {
        throw std::runtime_error(std::string("decode_jfif: truncated ") +
                                 what);
      }
      return bytes[p++];
    };
    if (code == 0xDB) {  // DQT (possibly several tables)
      while (p < seg_end) {
        const uint8_t pq_tq = next_byte("DQT");
        if ((pq_tq >> 4) != 0) throw std::runtime_error("16-bit DQT");
        const int id = pq_tq & 0x0F;
        if (id > 3) throw std::runtime_error("decode_jfif: DQT id");
        const auto& zz = zigzag_order();
        for (int k = 0; k < kBlockSamples; ++k) {
          fr.qtabs[id].q[zz[k]] = next_byte("DQT");
        }
        fr.qtab_seen[id] = true;
      }
    } else if (code == 0xC0) {  // SOF0
      // One frame per stream: a second header would redefine the component
      // layout the tables and scans were checked against.
      if (fr.sof_seen) throw std::runtime_error("decode_jfif: second SOF0");
      next_byte("SOF0");  // precision
      if (p + 4 > seg_end) throw std::runtime_error("decode_jfif: SOF0");
      fr.height = read_u16(bytes, p);
      fr.width = read_u16(bytes, p);
      if (fr.width <= 0 || fr.height <= 0) {
        throw std::runtime_error("decode_jfif: empty frame");
      }
      fr.ncomp = next_byte("SOF0");
      if (fr.ncomp != 1 && fr.ncomp != 3) {
        throw std::runtime_error("decode_jfif: unsupported ncomp");
      }
      for (int c = 0; c < fr.ncomp; ++c) {
        next_byte("SOF0");  // component id
        const uint8_t hv = next_byte("SOF0");
        if (c == 0 && hv == 0x22) fr.sub420 = true;
        else if (hv != 0x11 && !(c == 0 && hv == 0x22)) {
          throw std::runtime_error("decode_jfif: unsupported sampling");
        }
        fr.comp_qtab[c] = next_byte("SOF0") & 0x03;
      }
      fr.sof_seen = true;
    } else if (code == 0xC4) {  // DHT
      while (p < seg_end) {
        const uint8_t tc_th = next_byte("DHT");
        const int cls = tc_th >> 4;
        const int id = tc_th & 0x0F;
        if (cls > 1 || id > 3) throw std::runtime_error("decode_jfif: DHT id");
        HuffSpec spec;
        size_t total = 0;
        for (int i = 0; i < 16; ++i) {
          spec.bits[i] = next_byte("DHT");
          total += spec.bits[i];
        }
        if (p + total > seg_end || total > 256) {
          throw std::runtime_error("decode_jfif: DHT overflow");
        }
        spec.vals.assign(bytes.begin() + static_cast<long>(p),
                         bytes.begin() + static_cast<long>(p + total));
        p += total;
        (cls == 0 ? fr.dc_specs : fr.ac_specs)[id] = std::move(spec);
        (cls == 0 ? fr.dc_seen : fr.ac_seen)[id] = true;
      }
    } else if (code == 0xE9) {  // APP9: possibly our "DCMC" cm marker
      if (seg_end - p >= 13 && bytes[p] == kCmMagic[0] &&
          bytes[p + 1] == kCmMagic[1] && bytes[p + 2] == kCmMagic[2] &&
          bytes[p + 3] == kCmMagic[3]) {
        p += 4;
        fr.cm_version = next_byte("APP9");
        if (fr.cm_version != kCmVersion) {
          throw std::runtime_error("decode_jfif: cm version");
        }
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v = (v << 8) | next_byte("APP9");
        fr.cm_len = v;
        v = 0;
        for (int i = 0; i < 4; ++i) v = (v << 8) | next_byte("APP9");
        fr.cm_crc = v;
        fr.cm = true;
      }
      p = seg_end;  // foreign APP9 payloads are skipped like any APPn
    } else if (code == 0xDA) {  // SOS
      if (!fr.sof_seen) throw std::runtime_error("decode_jfif: SOS pre-SOF");
      const int ns = next_byte("SOS");
      if (ns != fr.ncomp) throw std::runtime_error("decode_jfif: SOS ncomp");
      for (int c = 0; c < ns; ++c) {
        next_byte("SOS");  // component selector (assume frame order)
        const uint8_t td_ta = next_byte("SOS");
        fr.comp_dc[c] = td_ta >> 4;
        fr.comp_ac[c] = td_ta & 0x0F;
        // cm scans carry no Huffman tables; the table ids are placeholders.
        if (!fr.cm && (fr.comp_dc[c] > 3 || fr.comp_ac[c] > 3 ||
                       !fr.dc_seen[fr.comp_dc[c]] ||
                       !fr.ac_seen[fr.comp_ac[c]])) {
          throw std::runtime_error("decode_jfif: SOS table id");
        }
        if (!fr.qtab_seen[fr.comp_qtab[c]]) {
          throw std::runtime_error("decode_jfif: missing DQT");
        }
      }
      next_byte("SOS");  // Ss
      next_byte("SOS");  // Se
      next_byte("SOS");  // Ah/Al
      scan_start = p;
      break;
    } else if (code == 0xDD) {  // DRI
      if (p + 2 > seg_end) throw std::runtime_error("decode_jfif: DRI");
      fr.restart_interval = read_u16(bytes, p);
    } else {
      p = seg_end;  // skip APPn / COM / others
    }
  }
  if (scan_start == 0) throw std::runtime_error("decode_jfif: no scan");

  CoeffImage ci;
  ci.width = fr.width;
  ci.height = fr.height;
  ci.format = fr.sub420 ? ChromaFormat::k420 : ChromaFormat::k444;
  ci.qluma = fr.qtabs[fr.comp_qtab[0]];
  ci.qchroma = fr.ncomp == 3 ? fr.qtabs[fr.comp_qtab[1]] : fr.qtabs[0];
  ci.quality = 0;  // unknown from file; tables carry the information

  const int mcu = fr.sub420 ? 16 : 8;
  const int mcus_w = ceil_div(fr.width, mcu);
  const int mcus_h = ceil_div(fr.height, mcu);
  for (int c = 0; c < fr.ncomp; ++c) {
    CoefComponent comp;
    const int fac = (c == 0 && fr.sub420) ? 2 : 1;
    comp.blocks_w = mcus_w * fac;
    comp.blocks_h = mcus_h * fac;
    comp.blocks.resize(static_cast<size_t>(comp.blocks_w) * comp.blocks_h);
    ci.comps.push_back(std::move(comp));
  }

  if (fr.cm) {
    // Context-mixing scan: raw range-coded bytes delimited by the APP9
    // length (cm bytes may contain 0xFF, so no marker scanning), guarded by
    // the APP9 CRC so truncation/corruption is rejected before model decode.
    ci.restart_interval = fr.restart_interval;
    if (fr.cm_len > bytes.size() - scan_start) {
      throw std::runtime_error("decode_jfif: cm payload truncated");
    }
    if (codec::crc32(bytes.data() + scan_start, fr.cm_len) != fr.cm_crc) {
      throw std::runtime_error("decode_jfif: cm payload CRC mismatch");
    }
    auto planes = cm_planes_mut(ci);
    codec::decode_planes(bytes.data() + scan_start, fr.cm_len, planes, 0, 63);
    return ci;
  }

  std::vector<HuffDecoder> dc_dec, ac_dec;
  dc_dec.reserve(static_cast<size_t>(fr.ncomp));
  ac_dec.reserve(static_cast<size_t>(fr.ncomp));
  for (int c = 0; c < fr.ncomp; ++c) {
    dc_dec.emplace_back(fr.dc_specs[fr.comp_dc[c]]);
    ac_dec.emplace_back(fr.ac_specs[fr.comp_ac[c]]);
  }

  ci.restart_interval = fr.restart_interval;
  const ScanGeometry g = scan_geometry(ci);

  // Split the entropy data into restart segments. Inside entropy data every
  // 0xFF is stuffed (followed by 0x00), so a 0xFF followed by 0xD0..0xD7 is
  // unambiguously an RSTn boundary.
  std::vector<std::pair<size_t, size_t>> segments;  // [begin, end) offsets
  {
    size_t begin = scan_start;
    for (size_t q = scan_start; q + 1 < bytes.size(); ++q) {
      if (bytes[q] == 0xFF && bytes[q + 1] >= 0xD0 && bytes[q + 1] <= 0xD7) {
        segments.emplace_back(begin, q);
        begin = q + 2;
        ++q;
      }
    }
    segments.emplace_back(begin, bytes.size());
  }

  const int total_mcus = g.mcus_w * g.mcus_h;
  const int per_segment =
      fr.restart_interval > 0 ? fr.restart_interval : total_mcus;
  size_t seg_index = 0;
  int mcu_pos = 0;
  while (mcu_pos < total_mcus) {
    if (seg_index >= segments.size()) {
      throw std::runtime_error("decode_jfif: missing restart segment");
    }
    const auto [seg_begin, seg_end2] = segments[seg_index++];
    BitReader br(bytes.data() + seg_begin, seg_end2 - seg_begin);
    std::vector<int> dc_pred(static_cast<size_t>(fr.ncomp), 0);
    const int mcu_end = std::min(total_mcus, mcu_pos + per_segment);
    // Error containment: a corrupted segment damages only its own MCUs;
    // the remaining blocks of the segment stay zero and decoding resumes
    // at the next restart marker (the purpose of restart intervals).
    try {
      for (; mcu_pos < mcu_end; ++mcu_pos) {
        const int my = mcu_pos / g.mcus_w;
        const int mx = mcu_pos % g.mcus_w;
        for (size_t c = 0; c < ci.comps.size(); ++c) {
          const auto [h, v] = g.sampling[c];
          for (int bv = 0; bv < v; ++bv) {
            for (int bh = 0; bh < h; ++bh) {
              decode_block(ci.comps[c].block(my * v + bv, mx * h + bh),
                           dc_dec[c], ac_dec[c], dc_pred[c], br);
            }
          }
        }
      }
    } catch (const std::exception& e) {
      if (fr.restart_interval == 0) throw;  // no containment without RSTs
      static obs::Counter& corrupt =
          obs::counter("jpeg.decode.corrupt_segments");
      corrupt.inc();
      DCDIFF_LOG_WARN("jpeg.decode", "corrupt_segment",
                      {{"segment", seg_index - 1}, {"error", e.what()}});
      mcu_pos = mcu_end;  // skip damaged remainder of this segment
    }
  }
  return ci;
}

EntropyKind detect_entropy_kind(const std::vector<uint8_t>& bytes) {
  // Walk the marker stream up to SOS looking for the APP9 "DCMC" tag. Any
  // malformed prefix is reported as kHuffman: the caller's decoder will then
  // produce the real (descriptive) parse error.
  size_t p = 2;
  if (bytes.size() < 4 || bytes[0] != 0xFF || bytes[1] != 0xD8) {
    return EntropyKind::kHuffman;
  }
  while (p + 4 <= bytes.size()) {
    if (bytes[p] != 0xFF) return EntropyKind::kHuffman;
    const uint8_t code = bytes[p + 1];
    p += 2;
    if (code == 0xD9 || code == 0xDA) break;
    const size_t len = (static_cast<size_t>(bytes[p]) << 8) | bytes[p + 1];
    const size_t seg_end = p + len;
    if (len < 2 || seg_end > bytes.size()) return EntropyKind::kHuffman;
    // Matches both the baseline tag "DCMC" and the progressive tag "DCMP".
    if (code == 0xE9 && seg_end - p >= 6 && bytes[p + 2] == kCmMagic[0] &&
        bytes[p + 3] == kCmMagic[1] && bytes[p + 4] == kCmMagic[2] &&
        (bytes[p + 5] == kCmMagic[3] || bytes[p + 5] == 'P')) {
      return EntropyKind::kCm;
    }
    p = seg_end;
  }
  return EntropyKind::kHuffman;
}

size_t entropy_bit_count_cm(const CoeffImage& ci) {
  return codec::encoded_bit_count(cm_planes(ci));
}

JpegResult jpeg_encode(const Image& src, int quality, ChromaFormat fmt) {
  JpegResult r;
  r.coeffs = forward_transform(src, quality, fmt);
  r.bytes = encode_jfif(r.coeffs);
  return r;
}

Image jpeg_decode(const std::vector<uint8_t>& bytes) {
  return inverse_transform(decode_jfif(bytes));
}

Image jpeg_roundtrip(const Image& src, int quality, ChromaFormat fmt) {
  return inverse_transform(forward_transform(src, quality, fmt));
}

}  // namespace dcdiff::jpeg

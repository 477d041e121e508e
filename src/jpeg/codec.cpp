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
#include "jpeg/jfif.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcdiff::jpeg {
namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Extracts a level-shifted 8x8 block (replicate padding at edges).
void extract_block(const Image& img, int c, int y0, int x0, PixelBlock& out) {
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) {
      out[y * kBlockSize + x] = img.at_clamped(c, y0 + y, x0 + x) - 128.0f;
    }
  }
}

// Encodes one block; dc_pred is updated.
void encode_block(const std::array<int16_t, kBlockSamples>& block,
                  const HuffEncoder& dc_enc, const HuffEncoder& ac_enc,
                  int& dc_pred, BitWriter& bw) {
  // DC: DPCM.
  const int diff = block[0] - dc_pred;
  dc_pred = block[0];
  const int s = jfif::bit_category(diff);
  jfif::put_symbol(bw, dc_enc, static_cast<uint8_t>(s), diff, s);
  // AC: run-length of zeros + category.
  jfif::for_each_ac_symbol(block, 1, 63, [&](uint8_t sym, int v, int size) {
    jfif::put_symbol(bw, ac_enc, sym, v, size);
  });
}

void decode_block(std::array<int16_t, kBlockSamples>& block,
                  const HuffDecoder& dc_dec, const HuffDecoder& ac_dec,
                  int& dc_pred, BitReader& br) {
  const auto& zz = zigzag_order();
  block.fill(0);
  const int s = dc_dec.decode(br);
  block[0] = jfif::next_dc(
      dc_pred, s > 0 ? jfif::extend_value(br.get_bits(s), s) : 0);
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
    block[zz[k]] =
        static_cast<int16_t>(jfif::extend_value(br.get_bits(cat), cat));
    ++k;
  }
}

std::vector<uint8_t> encode_scan(const CoeffImage& ci) {
  DCDIFF_TRACE_SPAN("jpeg.encode_scan");
  static obs::Histogram& lat = obs::histogram("jpeg.encode_scan_seconds");
  obs::ScopedLatency timer(lat);
  const HuffEncoder dc_luma(std_dc_luma()), ac_luma(std_ac_luma());
  const HuffEncoder dc_chroma(std_dc_chroma()), ac_chroma(std_ac_chroma());
  const jfif::ScanGeometry g = jfif::scan_geometry(ci);
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

// APP9 "DCMC" tag of a cm-coded baseline file: magic, version, exact
// payload byte count (cm bytes may contain 0xFF, so the scan cannot be
// delimited by marker search), and a CRC-32 over the payload so truncation /
// corruption is detected before the model decodes garbage.
void put_cm_app9(std::vector<uint8_t>& out,
                 const std::vector<uint8_t>& payload) {
  jfif::put_cm_tag(out, jfif::kCmBaselineTag);
  jfif::put_u32(out, static_cast<uint32_t>(payload.size()));
  uint32_t crc = codec::crc32(payload.data(), payload.size());
  // Fault site: a corrupted CRC word must make the decoder reject the cm
  // payload with a typed Status, never decode garbage coefficients.
  if (DCDIFF_FAULT_POINT("codec.crc.corrupt")) crc ^= 0xDEADBEEFu;
  jfif::put_u32(out, crc);
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
  if (cm) cm_payload = codec::encode_planes(jfif::cm_planes(ci), 0, 63);

  std::vector<uint8_t> out;
  jfif::put_marker(out, 0xD8);  // SOI
  // APP0 / JFIF header.
  jfif::put_marker(out, 0xE0);
  jfif::put_u16(out, 16);
  const char jfif_id[5] = {'J', 'F', 'I', 'F', '\0'};
  out.insert(out.end(), jfif_id, jfif_id + 5);
  out.push_back(1);
  out.push_back(1);  // version 1.1
  out.push_back(0);  // aspect units
  jfif::put_u16(out, 1);
  jfif::put_u16(out, 1);
  out.push_back(0);
  out.push_back(0);  // no thumbnail

  if (cm) put_cm_app9(out, cm_payload);
  jfif::put_frame_header(out, ci, jfif::kSOF0, ci.restart_interval, !cm);
  // One interleaved scan; cm streams name Huffman table 0 as a placeholder.
  jfif::put_sos(out, 0, static_cast<int>(ci.comps.size()), 0x00,
                cm ? 0x00 : 0x11, 0, 63);

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
  jfif::put_marker(out, 0xD9);  // EOI
  static obs::Counter& images = obs::counter("jpeg.encode.images");
  static obs::Counter& bytes_out = obs::counter("jpeg.encode.bytes_out");
  static obs::Counter& cm_images = obs::counter("jpeg.encode.cm_images");
  images.inc();
  if (cm) cm_images.inc();
  bytes_out.inc(out.size());
  return out;
}

namespace {

// Walks the scan in MCU order and reports every (is_dc, is_luma, symbol,
// magnitude-bit-count) triple the entropy coder would emit. Shared by the
// standard-table bit counter and the optimized-table one (two passes:
// gather stats, then cost).
template <typename Fn>
void for_each_symbol(const CoeffImage& ci, Fn&& fn) {
  const jfif::ScanGeometry g = jfif::scan_geometry(ci);
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
            const int s = jfif::bit_category(diff);
            fn(true, luma, static_cast<uint8_t>(s), s);
            jfif::for_each_ac_symbol(block, 1, 63,
                                     [&](uint8_t sym, int, int size) {
                                       fn(false, luma, sym, size);
                                     });
          }
        }
      }
    }
  }
}

}  // namespace

size_t entropy_bit_count(const CoeffImage& ci) {
  DCDIFF_TRACE_SPAN("jpeg.entropy_bit_count");
  static obs::Histogram& lat =
      obs::histogram("jpeg.entropy_bit_count_seconds");
  obs::ScopedLatency timer(lat);
  const HuffEncoder dc_luma(std_dc_luma()), ac_luma(std_ac_luma());
  const HuffEncoder dc_chroma(std_dc_chroma()), ac_chroma(std_ac_chroma());
  size_t bits = 0;
  for_each_symbol(ci, [&](bool is_dc, bool is_luma, uint8_t sym,
                          int extra_bits) {
    const HuffEncoder& enc = is_dc ? (is_luma ? dc_luma : dc_chroma)
                                   : (is_luma ? ac_luma : ac_chroma);
    const int length = enc.code_length(sym);
    // Where HuffEncoder::encode would throw writing the scan.
    if (length == 0) {
      throw std::runtime_error("HuffEncoder: symbol has no code");
    }
    bits += static_cast<size_t>(length) + static_cast<size_t>(extra_bits);
  });
  return bits;
}

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

namespace {

// The interleaved Huffman scan, split into restart segments, with error
// containment per segment when the frame has a restart interval.
void decode_huffman_scan(const std::vector<uint8_t>& bytes,
                         const jfif::Reader& reader, const jfif::Scan& scan,
                         CoeffImage& ci) {
  const size_t ncomp = ci.comps.size();
  std::vector<HuffDecoder> dc_dec, ac_dec;
  dc_dec.reserve(ncomp);
  ac_dec.reserve(ncomp);
  for (size_t c = 0; c < ncomp; ++c) {
    dc_dec.emplace_back(reader.dc_spec(scan.dc[c]));
    ac_dec.emplace_back(reader.ac_spec(scan.ac[c]));
  }
  const jfif::ScanGeometry g = jfif::scan_geometry(ci);

  // Split the entropy data into restart segments. Inside entropy data every
  // 0xFF is stuffed (followed by 0x00), so a 0xFF followed by 0xD0..0xD7 is
  // unambiguously an RSTn boundary.
  std::vector<std::pair<size_t, size_t>> segments;  // [begin, end) offsets
  {
    size_t begin = scan.data;
    for (size_t q = scan.data; q + 1 < bytes.size(); ++q) {
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
      ci.restart_interval > 0 ? ci.restart_interval : total_mcus;
  size_t seg_index = 0;
  int mcu_pos = 0;
  while (mcu_pos < total_mcus) {
    if (seg_index >= segments.size()) {
      throw std::runtime_error("missing restart segment");
    }
    const auto [seg_begin, seg_end] = segments[seg_index++];
    BitReader br(bytes.data() + seg_begin, seg_end - seg_begin);
    std::vector<int> dc_pred(ncomp, 0);
    const int mcu_end = std::min(total_mcus, mcu_pos + per_segment);
    // Error containment: a corrupted segment damages only its own MCUs;
    // the remaining blocks of the segment stay zero and decoding resumes
    // at the next restart marker (the purpose of restart intervals).
    try {
      for (; mcu_pos < mcu_end; ++mcu_pos) {
        const int my = mcu_pos / g.mcus_w;
        const int mx = mcu_pos % g.mcus_w;
        for (size_t c = 0; c < ncomp; ++c) {
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
      if (ci.restart_interval == 0) throw;  // no containment without RSTs
      static obs::Counter& corrupt =
          obs::counter("jpeg.decode.corrupt_segments");
      corrupt.inc();
      DCDIFF_LOG_WARN("jpeg.decode", "corrupt_segment",
                      {{"segment", seg_index - 1}, {"error", e.what()}});
      mcu_pos = mcu_end;  // skip damaged remainder of this segment
    }
  }
}

}  // namespace

CoeffImage decode_jfif(const std::vector<uint8_t>& bytes) {
  DCDIFF_TRACE_SPAN("jpeg.decode_jfif");
  static obs::Histogram& lat = obs::histogram("jpeg.decode_jfif_seconds");
  obs::ScopedLatency timer(lat);
  static obs::Counter& images = obs::counter("jpeg.decode.images");
  static obs::Counter& bytes_in = obs::counter("jpeg.decode.bytes_in");
  images.inc();
  bytes_in.inc(bytes.size());
  jfif::Reader reader(bytes, "decode_jfif", jfif::kSOF0);
  jfif::Scan scan;
  if (!reader.next_scan(&scan)) reader.fail("EOI", "no scan");
  CoeffImage ci = reader.image();
  // A cm scan is raw range-coded bytes delimited by the APP9 length and
  // guarded by its CRC.
  const bool cm = reader.cm_tag() != 0;
  const auto [cm_at, cm_len] =
      cm ? reader.cm_payload(scan) : std::pair<size_t, size_t>{};
  try {
    if (cm) {
      codec::decode_planes(bytes.data() + cm_at, cm_len,
                           jfif::cm_planes_mut(ci), 0, 63);
    } else {
      decode_huffman_scan(bytes, reader, scan, ci);
    }
  } catch (const std::exception& e) {
    reader.fail("scan", e.what());
  }
  return ci;
}

EntropyKind detect_entropy_kind(const std::vector<uint8_t>& bytes) {
  // The APP9 cm tag precedes the first SOS. A malformed header is reported
  // as kHuffman: the caller's decoder then produces the descriptive error.
  try {
    jfif::Reader reader(bytes, "detect_entropy_kind", 0);
    jfif::Scan scan;
    reader.next_scan(&scan);
    return reader.cm_tag() != 0 ? EntropyKind::kCm : EntropyKind::kHuffman;
  } catch (const std::runtime_error&) {
    return EntropyKind::kHuffman;
  }
}

size_t entropy_bit_count_cm(const CoeffImage& ci) {
  return codec::encoded_bit_count(jfif::cm_planes(ci));
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

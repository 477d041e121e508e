#include "jpeg/progressive.h"

#include <stdexcept>

#include "codec/crc32.h"
#include "codec/dctmodel.h"
#include "jpeg/bitio.h"
#include "jpeg/huffman.h"
#include "jpeg/jfif.h"

namespace dcdiff::jpeg {
namespace {

// One scan's cm payload: explicit length + CRC + raw range-coded bytes.
void put_cm_scan(std::vector<uint8_t>& out,
                 const std::vector<uint8_t>& payload) {
  jfif::put_u32(out, static_cast<uint32_t>(payload.size()));
  jfif::put_u32(out, codec::crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

bool is_progressive(const std::vector<uint8_t>& bytes) {
  // Answers from the frame header; a malformed header is not progressive.
  try {
    jfif::Reader reader(bytes, "is_progressive", 0);
    jfif::Scan scan;
    reader.next_scan(&scan);
    return reader.frame().sof == jfif::kSOF2;
  } catch (const std::runtime_error&) {
    return false;
  }
}

std::vector<uint8_t> encode_progressive(const CoeffImage& ci,
                                        const ProgressiveConfig& cfg,
                                        EntropyKind kind) {
  // Validate the band tiling.
  {
    int expect = 1;
    for (const auto& [ss, se] : cfg.ac_bands) {
      if (ss != expect || se < ss || se > 63) {
        throw std::invalid_argument("encode_progressive: bad AC bands");
      }
      expect = se + 1;
    }
    if (expect != 64) {
      throw std::invalid_argument("encode_progressive: bands must tile 1..63");
    }
  }
  const bool cm = kind == EntropyKind::kCm;

  std::vector<uint8_t> out;
  jfif::put_marker(out, 0xD8);
  // APP9 "DCMP": marks every scan as cm-framed (len+CRC+payload).
  if (cm) jfif::put_cm_tag(out, jfif::kCmProgressiveTag);
  jfif::put_frame_header(out, ci, jfif::kSOF2, /*restart_interval=*/0, !cm);

  const int ncomp = static_cast<int>(ci.comps.size());
  const jfif::ScanGeometry g = jfif::scan_geometry(ci);

  if (cm) {
    // ----- cm scans: DC interleaved over all planes, then per-component
    // AC band scans, each an independently framed range-coded stream. -----
    const std::vector<codec::PlaneIo> planes = jfif::cm_planes(ci);
    jfif::put_sos(out, 0, ncomp, 0x00, 0x00, 0, 0);
    put_cm_scan(out, codec::encode_planes(planes, 0, 0));
    for (int c = 0; c < ncomp; ++c) {
      for (const auto& [ss, se] : cfg.ac_bands) {
        jfif::put_sos(out, c, 1, 0x00, 0x00, ss, se);
        put_cm_scan(out, codec::encode_planes(
                             {planes[static_cast<size_t>(c)]}, ss, se));
      }
    }
    jfif::put_marker(out, 0xD9);
    return out;
  }

  // ----- Scan 1: interleaved DC scan (DC table 0 luma, 1 chroma) -----
  {
    jfif::put_sos(out, 0, ncomp, 0x00, 0x10, 0, 0);
    const HuffEncoder dcl(std_dc_luma()), dcc(std_dc_chroma());
    std::vector<int> pred(static_cast<size_t>(ncomp), 0);
    BitWriter bw;
    for (int my = 0; my < g.mcus_h; ++my) {
      for (int mx = 0; mx < g.mcus_w; ++mx) {
        for (int c = 0; c < ncomp; ++c) {
          const auto [h, v] = g.sampling[static_cast<size_t>(c)];
          const HuffEncoder& enc = c == 0 ? dcl : dcc;
          for (int bv = 0; bv < v; ++bv) {
            for (int bh = 0; bh < h; ++bh) {
              const int dc =
                  ci.comps[static_cast<size_t>(c)].block(my * v + bv,
                                                         mx * h + bh)[0];
              const int diff = dc - pred[static_cast<size_t>(c)];
              pred[static_cast<size_t>(c)] = dc;
              const int s = jfif::bit_category(diff);
              jfif::put_symbol(bw, enc, static_cast<uint8_t>(s), diff, s);
            }
          }
        }
      }
    }
    const auto seg = bw.finish();
    out.insert(out.end(), seg.begin(), seg.end());
  }

  // ----- AC band scans: one scan per (component, band), non-interleaved,
  // AC table 0 luma, 1 chroma -----
  for (int c = 0; c < ncomp; ++c) {
    const HuffEncoder ac(c == 0 ? std_ac_luma() : std_ac_chroma());
    for (const auto& [ss, se] : cfg.ac_bands) {
      jfif::put_sos(out, c, 1, 0x00, 0x01, ss, se);
      BitWriter bw;
      // Per-block EOB (run length 1): the Annex-K baseline tables carry no
      // EOBn symbols, so longer EOB runs are not expressible with them. The
      // decoder below accepts general EOBn streams regardless.
      for (const auto& block : ci.comps[static_cast<size_t>(c)].blocks) {
        jfif::for_each_ac_symbol(block, ss, se,
                                 [&](uint8_t sym, int v, int size) {
                                   jfif::put_symbol(bw, ac, sym, v, size);
                                 });
      }
      const auto seg = bw.finish();
      out.insert(out.end(), seg.begin(), seg.end());
    }
  }
  jfif::put_marker(out, 0xD9);
  return out;
}

namespace {

// One Huffman scan; returns the offset of the marker that ends its data.
size_t decode_huffman_scan(const std::vector<uint8_t>& bytes,
                           const jfif::Reader& reader, const jfif::Scan& scan,
                           CoeffImage& ci) {
  // Entropy data runs until the next non-stuffed marker.
  size_t end = scan.data;
  while (end + 1 < bytes.size()) {
    if (bytes[end] == 0xFF && bytes[end + 1] != 0x00) break;
    ++end;
  }
  BitReader br(bytes.data() + scan.data, end - scan.data);
  const auto& zz = zigzag_order();
  if (scan.ss == 0) {
    // Interleaved DC scan.
    const jfif::ScanGeometry g = jfif::scan_geometry(ci);
    std::vector<HuffDecoder> dec;
    for (int i = 0; i < scan.ns; ++i) {
      dec.emplace_back(reader.dc_spec(scan.dc[static_cast<size_t>(i)]));
    }
    std::vector<int> pred(static_cast<size_t>(scan.ns), 0);
    for (int my = 0; my < g.mcus_h; ++my) {
      for (int mx = 0; mx < g.mcus_w; ++mx) {
        for (size_t i = 0; i < dec.size(); ++i) {
          const size_t c = static_cast<size_t>(scan.comp[i]);
          const auto [h, v] = g.sampling[c];
          for (int bv = 0; bv < v; ++bv) {
            for (int bh = 0; bh < h; ++bh) {
              const int s = dec[i].decode(br);
              ci.comps[c].block(my * v + bv, mx * h + bh)[0] = jfif::next_dc(
                  pred[i], s > 0 ? jfif::extend_value(br.get_bits(s), s) : 0);
            }
          }
        }
      }
    }
    return end;
  }
  // Non-interleaved AC band scan with EOB runs.
  const HuffDecoder dec(reader.ac_spec(scan.ac[0]));
  int eobrun = 0;
  for (auto& block : ci.comps[static_cast<size_t>(scan.comp[0])].blocks) {
    if (eobrun > 0) {
      --eobrun;
      continue;
    }
    int k = scan.ss;
    while (k <= scan.se) {
      const uint8_t sym = dec.decode(br);
      const int r = sym >> 4, s = sym & 0x0F;
      if (s == 0) {
        if (r == 15) {
          k += 16;  // ZRL
          continue;
        }
        eobrun = (1 << r) - 1 + (r > 0 ? static_cast<int>(br.get_bits(r)) : 0);
        break;
      }
      k += r;
      if (k > scan.se) throw std::runtime_error("AC overrun");
      block[zz[k]] =
          static_cast<int16_t>(jfif::extend_value(br.get_bits(s), s));
      ++k;
    }
  }
  return end;
}

// Shared progressive parser. Stops after the first scan when preview_only.
CoeffImage parse_progressive(const std::vector<uint8_t>& bytes,
                             bool preview_only) {
  jfif::Reader reader(bytes, "decode_progressive", jfif::kSOF2);
  jfif::Scan scan;
  CoeffImage ci;
  bool first = true;
  while (reader.next_scan(&scan)) {
    if (first) ci = reader.image();
    first = false;
    const bool cm = reader.cm_tag() != 0;
    const auto [cm_at, cm_len] =
        cm ? reader.cm_payload(scan) : std::pair<size_t, size_t>{};
    size_t end = cm_at + cm_len;
    try {
      if (cm) {
        std::vector<codec::PlaneIo> planes = jfif::cm_planes_mut(ci);
        if (scan.ss > 0) {
          planes = {planes[static_cast<size_t>(scan.comp[0])]};
        }
        codec::decode_planes(bytes.data() + cm_at, cm_len, planes, scan.ss,
                             scan.se);
      } else {
        end = decode_huffman_scan(bytes, reader, scan, ci);
      }
    } catch (const std::exception& e) {
      reader.fail("scan", e.what());
    }
    if (preview_only && scan.ss == 0) return ci;
    reader.resume(end);
  }
  // EOI; the reader rejects input that ends without one, so a stream cut
  // exactly between scans does not pass for a complete one.
  if (first) reader.fail("EOI", "no scan");
  return ci;
}

}  // namespace

CoeffImage decode_progressive(const std::vector<uint8_t>& bytes) {
  return parse_progressive(bytes, /*preview_only=*/false);
}

Status try_decode_progressive(const std::vector<uint8_t>& bytes,
                              CoeffImage* out) noexcept {
  if (out == nullptr) {
    return Status::invalid_argument("try_decode_progressive: null output");
  }
  if (bytes.empty()) {
    return Status::invalid_argument("try_decode_progressive: empty buffer");
  }
  try {
    *out = parse_progressive(bytes, /*preview_only=*/false);
  } catch (const std::exception& e) {
    return Status::data_loss(e.what());
  }
  return Status::ok();
}

CoeffImage decode_progressive_preview(const std::vector<uint8_t>& bytes) {
  return parse_progressive(bytes, /*preview_only=*/true);
}

}  // namespace dcdiff::jpeg

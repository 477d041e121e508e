#include "jpeg/progressive.h"

#include <cmath>
#include <stdexcept>

#include "codec/crc32.h"
#include "codec/dctmodel.h"
#include "jpeg/bitio.h"
#include "jpeg/huffman.h"

namespace dcdiff::jpeg {
namespace {

// APP9 tag of a cm progressive stream ("DCMP": DC-diff codec, Multi-scan
// Progressive). The baseline single-scan form is "DCMC" (codec.cpp).
constexpr uint8_t kCmProgMagic[4] = {'D', 'C', 'M', 'P'};
constexpr uint8_t kCmProgVersion = 1;

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

// One scan's cm payload: explicit length + CRC + raw range-coded bytes.
void put_cm_scan(std::vector<uint8_t>& out,
                 const std::vector<uint8_t>& payload) {
  put_u32(out, static_cast<uint32_t>(payload.size()));
  put_u32(out, codec::crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

codec::PlaneIo cm_plane(const CoefComponent& comp, bool chroma) {
  codec::PlaneIo io;
  io.blocks_w = comp.blocks_w;
  io.blocks_h = comp.blocks_h;
  io.chroma = chroma;
  io.src = comp.blocks.empty() ? nullptr : comp.blocks[0].data();
  return io;
}

codec::PlaneIo cm_plane_mut(CoefComponent& comp, bool chroma) {
  codec::PlaneIo io;
  io.blocks_w = comp.blocks_w;
  io.blocks_h = comp.blocks_h;
  io.chroma = chroma;
  io.dst = comp.blocks.empty() ? nullptr : comp.blocks[0].data();
  return io;
}

int bit_category(int v) {
  int a = std::abs(v);
  int s = 0;
  while (a > 0) {
    a >>= 1;
    ++s;
  }
  return s;
}

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

struct McuLayout {
  int mcus_w = 0, mcus_h = 0;
  std::vector<std::pair<int, int>> sampling;  // (h, v) per component
};

McuLayout layout_for(const CoeffImage& ci) {
  McuLayout g;
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
  out.push_back(static_cast<uint8_t>(id));
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

void put_sos_header(std::vector<uint8_t>& out, int ncomp_in_scan,
                    const int* comp_ids, const int* dc_tab, const int* ac_tab,
                    int ss, int se) {
  put_marker(out, 0xDA);
  put_u16(out, static_cast<uint16_t>(6 + 2 * ncomp_in_scan));
  out.push_back(static_cast<uint8_t>(ncomp_in_scan));
  for (int i = 0; i < ncomp_in_scan; ++i) {
    out.push_back(static_cast<uint8_t>(comp_ids[i] + 1));
    out.push_back(static_cast<uint8_t>((dc_tab[i] << 4) | ac_tab[i]));
  }
  out.push_back(static_cast<uint8_t>(ss));
  out.push_back(static_cast<uint8_t>(se));
  out.push_back(0);  // Ah/Al: no successive approximation
}

}  // namespace

bool is_progressive(const std::vector<uint8_t>& bytes) {
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == 0xFF && bytes[i + 1] == 0xC2) return true;
    if (bytes[i] == 0xFF && bytes[i + 1] == 0xDA) break;
  }
  return false;
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
  put_marker(out, 0xD8);
  if (cm) {  // APP9 "DCMP": marks every scan as cm-framed (len+CRC+payload)
    put_marker(out, 0xE9);
    put_u16(out, 2 + 4 + 1);
    out.insert(out.end(), kCmProgMagic, kCmProgMagic + 4);
    out.push_back(kCmProgVersion);
  }
  put_dqt(out, ci.qluma, 0);
  if (!ci.gray()) put_dqt(out, ci.qchroma, 1);

  // SOF2 (progressive DCT).
  put_marker(out, 0xC2);
  const int ncomp = static_cast<int>(ci.comps.size());
  put_u16(out, static_cast<uint16_t>(8 + 3 * ncomp));
  out.push_back(8);
  put_u16(out, static_cast<uint16_t>(ci.height));
  put_u16(out, static_cast<uint16_t>(ci.width));
  out.push_back(static_cast<uint8_t>(ncomp));
  const bool sub420 = !ci.gray() && ci.format == ChromaFormat::k420;
  for (int c = 0; c < ncomp; ++c) {
    out.push_back(static_cast<uint8_t>(c + 1));
    out.push_back(static_cast<uint8_t>((c == 0 && sub420) ? 0x22 : 0x11));
    out.push_back(static_cast<uint8_t>(c == 0 ? 0 : 1));
  }

  if (!cm) {  // cm scans carry no Huffman tables
    put_dht(out, std_dc_luma(), 0, 0);
    put_dht(out, std_ac_luma(), 1, 0);
    if (!ci.gray()) {
      put_dht(out, std_dc_chroma(), 0, 1);
      put_dht(out, std_ac_chroma(), 1, 1);
    }
  }

  const McuLayout g = layout_for(ci);
  const auto& zz = zigzag_order();

  if (cm) {
    // ----- cm scans: DC interleaved over all planes, then per-component
    // AC band scans, each an independently framed range-coded stream. -----
    std::vector<codec::PlaneIo> planes;
    for (int c = 0; c < ncomp; ++c) {
      planes.push_back(cm_plane(ci.comps[static_cast<size_t>(c)], c != 0));
    }
    {
      std::vector<int> ids(static_cast<size_t>(ncomp));
      std::vector<int> zero_tab(static_cast<size_t>(ncomp), 0);
      for (int c = 0; c < ncomp; ++c) ids[static_cast<size_t>(c)] = c;
      put_sos_header(out, ncomp, ids.data(), zero_tab.data(),
                     zero_tab.data(), 0, 0);
      put_cm_scan(out, codec::encode_planes(planes, 0, 0));
    }
    for (int c = 0; c < ncomp; ++c) {
      for (const auto& [ss, se] : cfg.ac_bands) {
        const int zero = 0;
        put_sos_header(out, 1, &c, &zero, &zero, ss, se);
        put_cm_scan(out, codec::encode_planes(
                             {planes[static_cast<size_t>(c)]}, ss, se));
      }
    }
    put_marker(out, 0xD9);
    return out;
  }

  // ----- Scan 1: interleaved DC scan -----
  {
    std::vector<int> ids(static_cast<size_t>(ncomp));
    std::vector<int> dct(static_cast<size_t>(ncomp)),
        act(static_cast<size_t>(ncomp), 0);
    for (int c = 0; c < ncomp; ++c) {
      ids[static_cast<size_t>(c)] = c;
      dct[static_cast<size_t>(c)] = c == 0 ? 0 : 1;
    }
    put_sos_header(out, ncomp, ids.data(), dct.data(), act.data(), 0, 0);
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
              const int s = bit_category(diff);
              enc.encode(bw, static_cast<uint8_t>(s));
              if (s > 0) bw.put_bits(magnitude_bits(diff, s), s);
            }
          }
        }
      }
    }
    const auto seg = bw.finish();
    out.insert(out.end(), seg.begin(), seg.end());
  }

  // ----- AC band scans: one scan per (component, band), non-interleaved ---
  for (int c = 0; c < ncomp; ++c) {
    const HuffEncoder ac(c == 0 ? std_ac_luma() : std_ac_chroma());
    const int actab = c == 0 ? 0 : 1;
    for (const auto& [ss, se] : cfg.ac_bands) {
      const int zero = 0;
      put_sos_header(out, 1, &c, &zero, &actab, ss, se);
      BitWriter bw;
      const auto& comp = ci.comps[static_cast<size_t>(c)];
      // Per-block EOB (run length 1): the Annex-K baseline tables carry no
      // EOBn symbols, so longer EOB runs are not expressible with them. The
      // decoder below accepts general EOBn streams regardless.
      for (const auto& block : comp.blocks) {
        int r = 0;
        bool wrote = false;
        for (int k = ss; k <= se; ++k) {
          const int v = block[zz[k]];
          if (v == 0) {
            ++r;
            continue;
          }
          while (r > 15) {
            ac.encode(bw, 0xF0);  // ZRL
            r -= 16;
          }
          const int s = bit_category(v);
          ac.encode(bw, static_cast<uint8_t>((r << 4) | s));
          bw.put_bits(magnitude_bits(v, s), s);
          r = 0;
          wrote = true;
        }
        if (r > 0 || !wrote) ac.encode(bw, 0x00);  // EOB for this block
      }
      const auto seg = bw.finish();
      out.insert(out.end(), seg.begin(), seg.end());
    }
  }
  put_marker(out, 0xD9);
  return out;
}

namespace {

// Shared progressive parser. Stops after the first scan when preview_only.
CoeffImage parse_progressive(const std::vector<uint8_t>& bytes,
                             bool preview_only) {
  if (bytes.size() < 4 || bytes[0] != 0xFF || bytes[1] != 0xD8) {
    throw std::runtime_error("decode_progressive: missing SOI");
  }
  size_t p = 2;
  CoeffImage ci;
  int ncomp = 0;
  bool sub420 = false;
  std::array<QuantTable, 4> qtabs{};
  std::array<HuffSpec, 4> dc_specs{}, ac_specs{};
  std::array<bool, 4> dc_seen{}, ac_seen{};
  std::array<int, 3> comp_qtab{};
  bool have_frame = false;
  bool complete = false;  // saw EOI (or a legitimate preview early-exit)
  bool cm = false;  // APP9 "DCMP" seen: scans are cm-framed

  auto u16 = [&](size_t at) {
    return static_cast<uint16_t>((bytes[at] << 8) | bytes[at + 1]);
  };
  auto u32 = [&](size_t at) {
    return (static_cast<uint32_t>(bytes[at]) << 24) |
           (static_cast<uint32_t>(bytes[at + 1]) << 16) |
           (static_cast<uint32_t>(bytes[at + 2]) << 8) |
           static_cast<uint32_t>(bytes[at + 3]);
  };

  while (p + 2 <= bytes.size()) {
    if (bytes[p] != 0xFF) {
      throw std::runtime_error("decode_progressive: bad marker");
    }
    const uint8_t code = bytes[p + 1];
    p += 2;
    if (code == 0xD9) {
      complete = true;
      break;
    }
    if (p + 2 > bytes.size()) {
      throw std::runtime_error("decode_progressive: truncated");
    }
    const size_t seg_end = p + u16(p);
    if (seg_end > bytes.size()) {
      throw std::runtime_error("decode_progressive: segment length");
    }
    size_t q = p + 2;
    if (code == 0xDB) {
      while (q < seg_end) {
        const int id = bytes[q++] & 0x0F;
        if (id > 3 || q + 64 > seg_end) {
          throw std::runtime_error("decode_progressive: DQT");
        }
        const auto& zz = zigzag_order();
        for (int k = 0; k < kBlockSamples; ++k) {
          qtabs[static_cast<size_t>(id)].q[zz[k]] = bytes[q++];
        }
      }
      p = seg_end;
    } else if (code == 0xC2) {
      // One frame per stream: a second SOF2 would append its components to
      // the first frame's.
      if (have_frame) {
        throw std::runtime_error("decode_progressive: second SOF2");
      }
      if (q + 6 > seg_end) {
        throw std::runtime_error("decode_progressive: truncated SOF2");
      }
      ci.height = u16(q + 1);
      ci.width = u16(q + 3);
      if (ci.width <= 0 || ci.height <= 0) {
        throw std::runtime_error("decode_progressive: empty frame");
      }
      ncomp = bytes[q + 5];
      if (ncomp != 1 && ncomp != 3) {
        throw std::runtime_error("decode_progressive: ncomp");
      }
      if (q + 6 + 3 * static_cast<size_t>(ncomp) > seg_end) {
        throw std::runtime_error("decode_progressive: truncated SOF2");
      }
      for (int c = 0; c < ncomp; ++c) {
        const uint8_t hv = bytes[q + 6 + 3 * c + 1];
        if (c == 0 && hv == 0x22) sub420 = true;
        else if (hv != 0x11 && !(c == 0 && hv == 0x22)) {
          throw std::runtime_error("decode_progressive: sampling");
        }
        comp_qtab[static_cast<size_t>(c)] = bytes[q + 6 + 3 * c + 2] & 3;
      }
      ci.format = sub420 ? ChromaFormat::k420 : ChromaFormat::k444;
      const int mcu = sub420 ? 16 : 8;
      const int mcus_w = (ci.width + mcu - 1) / mcu;
      const int mcus_h = (ci.height + mcu - 1) / mcu;
      for (int c = 0; c < ncomp; ++c) {
        CoefComponent comp;
        const int fac = (c == 0 && sub420) ? 2 : 1;
        comp.blocks_w = mcus_w * fac;
        comp.blocks_h = mcus_h * fac;
        comp.blocks.resize(static_cast<size_t>(comp.blocks_w) *
                           comp.blocks_h);
        ci.comps.push_back(std::move(comp));
      }
      have_frame = true;
      p = seg_end;
    } else if (code == 0xC4) {
      while (q < seg_end) {
        if (q + 17 > seg_end) {
          throw std::runtime_error("decode_progressive: truncated DHT");
        }
        const uint8_t tc_th = bytes[q++];
        const int cls = tc_th >> 4, id = tc_th & 0x0F;
        if (cls > 1 || id > 3) {
          throw std::runtime_error("decode_progressive: DHT id");
        }
        HuffSpec spec;
        size_t total = 0;
        for (int i = 0; i < 16; ++i) {
          spec.bits[i] = bytes[q++];
          total += spec.bits[i];
        }
        if (q + total > seg_end || total > 256) {
          throw std::runtime_error("decode_progressive: DHT");
        }
        spec.vals.assign(bytes.begin() + static_cast<long>(q),
                         bytes.begin() + static_cast<long>(q + total));
        q += total;
        (cls == 0 ? dc_specs : ac_specs)[static_cast<size_t>(id)] =
            std::move(spec);
        (cls == 0 ? dc_seen : ac_seen)[static_cast<size_t>(id)] = true;
      }
      p = seg_end;
    } else if (code == 0xE9) {
      // APP9: a "DCMP" tag switches scan parsing to cm framing.
      if (seg_end - q >= 5 && bytes[q] == kCmProgMagic[0] &&
          bytes[q + 1] == kCmProgMagic[1] && bytes[q + 2] == kCmProgMagic[2] &&
          bytes[q + 3] == kCmProgMagic[3]) {
        if (bytes[q + 4] != kCmProgVersion) {
          throw std::runtime_error("decode_progressive: cm version");
        }
        cm = true;
      }
      p = seg_end;
    } else if (code == 0xDA) {
      if (!have_frame) throw std::runtime_error("decode_progressive: SOS");
      if (q >= seg_end) {
        throw std::runtime_error("decode_progressive: truncated SOS");
      }
      const int ns = bytes[q++];
      if (ns < 1 || ns > 3 ||
          q + 2 * static_cast<size_t>(ns) + 3 > seg_end) {
        throw std::runtime_error("decode_progressive: SOS header");
      }
      std::vector<int> scan_comps;
      std::vector<int> dct(static_cast<size_t>(ns)),
          act(static_cast<size_t>(ns));
      for (int i = 0; i < ns; ++i) {
        const int c = bytes[q] - 1;
        if (c < 0 || c >= ncomp) {
          throw std::runtime_error("decode_progressive: SOS component");
        }
        scan_comps.push_back(c);
        dct[static_cast<size_t>(i)] = bytes[q + 1] >> 4;
        act[static_cast<size_t>(i)] = bytes[q + 1] & 0x0F;
        q += 2;
      }
      const int ss = bytes[q], se = bytes[q + 1];
      q += 3;
      if (ss < 0 || se > 63 || ss > se) {
        throw std::runtime_error("decode_progressive: SOS band");
      }

      if (cm) {
        // cm-framed scan: u32 payload length, u32 CRC-32, raw bytes.
        if (q + 8 > bytes.size()) {
          throw std::runtime_error("decode_progressive: cm frame");
        }
        const uint32_t len = u32(q);
        const uint32_t crc = u32(q + 4);
        q += 8;
        if (len > bytes.size() - q) {
          throw std::runtime_error("decode_progressive: cm scan truncated");
        }
        if (codec::crc32(bytes.data() + q, len) != crc) {
          throw std::runtime_error("decode_progressive: cm CRC mismatch");
        }
        std::vector<codec::PlaneIo> planes;
        if (ss == 0) {
          if (se != 0 || ns != ncomp) {
            throw std::runtime_error("decode_progressive: cm DC scan");
          }
          for (int i = 0; i < ns; ++i) {
            const int c = scan_comps[static_cast<size_t>(i)];
            planes.push_back(
                cm_plane_mut(ci.comps[static_cast<size_t>(c)], c != 0));
          }
        } else {
          if (ns != 1) {
            throw std::runtime_error("decode_progressive: cm AC scan");
          }
          const int c = scan_comps[0];
          planes.push_back(
              cm_plane_mut(ci.comps[static_cast<size_t>(c)], c != 0));
        }
        codec::decode_planes(bytes.data() + q, len, planes, ss, se);
        p = q + len;
        if (preview_only && ss == 0) {
        complete = true;
        break;
      }
        continue;
      }

      // Entropy data: runs until the next non-stuffed marker.
      size_t data_end = q;
      while (data_end + 1 < bytes.size()) {
        if (bytes[data_end] == 0xFF && bytes[data_end + 1] != 0x00) break;
        ++data_end;
      }
      BitReader br(bytes.data() + q, data_end - q);
      const auto& zz = zigzag_order();
      if (ss == 0) {
        // Interleaved DC scan.
        McuLayout g = layout_for(ci);
        std::vector<HuffDecoder> dec;
        for (int i = 0; i < ns; ++i) {
          const int id = dct[static_cast<size_t>(i)];
          if (id > 3 || !dc_seen[static_cast<size_t>(id)]) {
            throw std::runtime_error("decode_progressive: DC table id");
          }
          dec.emplace_back(dc_specs[static_cast<size_t>(id)]);
        }
        std::vector<int> pred(static_cast<size_t>(ns), 0);
        for (int my = 0; my < g.mcus_h; ++my) {
          for (int mx = 0; mx < g.mcus_w; ++mx) {
            for (int i = 0; i < ns; ++i) {
              const int c = scan_comps[static_cast<size_t>(i)];
              const auto [h, v] = g.sampling[static_cast<size_t>(c)];
              for (int bv = 0; bv < v; ++bv) {
                for (int bh = 0; bh < h; ++bh) {
                  const int s = dec[static_cast<size_t>(i)].decode(br);
                  const int diff =
                      s > 0 ? extend_value(br.get_bits(s), s) : 0;
                  pred[static_cast<size_t>(i)] += diff;
                  ci.comps[static_cast<size_t>(c)].block(
                      my * v + bv, mx * h + bh)[0] =
                      static_cast<int16_t>(pred[static_cast<size_t>(i)]);
                }
              }
            }
          }
        }
      } else {
        // Non-interleaved AC band scan with EOB runs.
        if (ns != 1) throw std::runtime_error("progressive AC scan ncomp");
        const int c = scan_comps[0];
        if (act[0] > 3 || !ac_seen[static_cast<size_t>(act[0])]) {
          throw std::runtime_error("decode_progressive: AC table id");
        }
        HuffDecoder dec(ac_specs[static_cast<size_t>(act[0])]);
        auto& comp = ci.comps[static_cast<size_t>(c)];
        int eobrun = 0;
        for (auto& block : comp.blocks) {
          if (eobrun > 0) {
            --eobrun;
            continue;
          }
          int k = ss;
          while (k <= se) {
            const uint8_t sym = dec.decode(br);
            const int r = sym >> 4, s = sym & 0x0F;
            if (s == 0) {
              if (r == 15) {
                k += 16;  // ZRL
                continue;
              }
              eobrun = (1 << r) - 1 +
                       (r > 0 ? static_cast<int>(br.get_bits(r)) : 0);
              break;
            }
            k += r;
            if (k > se) {
              throw std::runtime_error("progressive AC overrun");
            }
            block[zz[k]] =
                static_cast<int16_t>(extend_value(br.get_bits(s), s));
            ++k;
          }
        }
      }
      p = data_end;
      if (preview_only && ss == 0) {
        complete = true;
        break;
      }
    } else {
      p = seg_end;
    }
  }
  if (!have_frame) throw std::runtime_error("decode_progressive: no frame");
  if (!complete) {
    // Ran off the end without EOI: a truncated stream must not pass for a
    // complete one even when the cut lands exactly between scans.
    throw std::runtime_error("decode_progressive: truncated stream");
  }
  ci.qluma = qtabs[static_cast<size_t>(comp_qtab[0])];
  ci.qchroma = ncomp == 3 ? qtabs[static_cast<size_t>(comp_qtab[1])]
                          : qtabs[0];
  ci.quality = 0;
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

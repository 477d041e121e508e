#include "jpeg/jfif.h"

#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "codec/crc32.h"

namespace dcdiff::jpeg::jfif {
namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

constexpr uint8_t kCmMagic[3] = {'D', 'C', 'M'};
constexpr uint8_t kCmVersion = 1;

// Every frame type T.81 defines; only SOF0 and SOF2 are supported.
bool is_sof(uint8_t code) {
  return code >= 0xC0 && code <= 0xCF && code != 0xC4 && code != 0xC8 &&
         code != 0xCC;
}

std::string segment_name(uint8_t code) {
  if (is_sof(code)) return "SOF";
  if (code >= 0xE0 && code <= 0xEF) return "APP" + std::to_string(code - 0xE0);
  if (code >= 0xD0 && code <= 0xD7) return "RST";
  switch (code) {
    case 0xC4: return "DHT";
    case 0xD8: return "SOI";
    case 0xD9: return "EOI";
    case 0xDA: return "SOS";
    case 0xDB: return "DQT";
    case 0xDD: return "DRI";
    case 0xFE: return "COM";
    default: {
      static const char kHex[] = "0123456789ABCDEF";
      return std::string("marker 0x") + kHex[code >> 4] + kHex[code & 0x0F];
    }
  }
}

}  // namespace

// ----- Reader -----

Reader::Reader(const std::vector<uint8_t>& bytes, const char* who,
               uint8_t sof)
    : bytes_(bytes), who_(who), want_sof_(sof) {
  if (bytes.size() < 2 || bytes[0] != 0xFF || bytes[1] != 0xD8) {
    fail("SOI", "missing");
  }
  pos_ = 2;
}

void Reader::fail(const std::string& segment, const std::string& what) const {
  throw std::runtime_error(std::string(who_) + ": " + segment + ": " + what);
}

void Reader::resume(size_t pos) {
  pos_ = pos;
  last_ = "scan";
}

uint32_t Reader::u32(size_t at) const {
  return (static_cast<uint32_t>(bytes_[at]) << 24) |
         (static_cast<uint32_t>(bytes_[at + 1]) << 16) |
         (static_cast<uint32_t>(bytes_[at + 2]) << 8) |
         static_cast<uint32_t>(bytes_[at + 3]);
}

bool Reader::next_scan(Scan* scan) {
  for (;;) {
    if (pos_ + 2 > bytes_.size()) {
      fail("EOI", "missing, input ends after " + last_);
    }
    if (bytes_[pos_] != 0xFF) fail(last_, "not followed by a marker");
    const uint8_t code = bytes_[pos_ + 1];
    const std::string name = segment_name(code);
    if (code == 0xD9) return false;
    // Markers without a length field have no place between segments.
    if (code == 0x00 || code == 0x01 || code == 0xFF ||
        (code >= 0xD0 && code <= 0xD8)) {
      fail(name, "unexpected marker after " + last_);
    }
    if (pos_ + 4 > bytes_.size()) fail(name, "truncated length");
    const size_t len = (static_cast<size_t>(bytes_[pos_ + 2]) << 8) |
                       bytes_[pos_ + 3];
    if (len < 2) fail(name, "length " + std::to_string(len) + " < 2");
    const size_t at = pos_ + 4;
    const size_t end = pos_ + 2 + len;
    if (end > bytes_.size()) {
      fail(name, "length " + std::to_string(len) + " past end of input");
    }
    if (code == 0xDB) {
      read_dqt(at, end);
    } else if (code == 0xC4) {
      read_dht(at, end);
    } else if (is_sof(code)) {
      read_sof(code, at, end);
    } else if (code == 0xDD) {
      if (len != 4) fail(name, "length " + std::to_string(len) + " != 4");
      restart_interval_ = (bytes_[at] << 8) | bytes_[at + 1];
    } else if (code == 0xE9) {
      read_app9(at, end);
    } else if (code == 0xDA) {
      read_sos(at, end, scan);
      pos_ = end;
      last_ = name;
      return true;
    }
    pos_ = end;  // APPn, COM and the rest carry nothing the codecs use
    last_ = name;
  }
}

void Reader::read_dqt(size_t at, size_t end) {
  const auto& zz = zigzag_order();
  while (at < end) {
    const uint8_t pq_tq = bytes_[at++];
    if ((pq_tq >> 4) != 0) fail("DQT", "16-bit table");
    const int id = pq_tq & 0x0F;
    if (id > 3) fail("DQT", "table id " + std::to_string(id));
    if (end - at < static_cast<size_t>(kBlockSamples)) {
      fail("DQT", "table " + std::to_string(id) + " truncated");
    }
    for (int k = 0; k < kBlockSamples; ++k) {
      qtab_[static_cast<size_t>(id)].q[zz[k]] = bytes_[at++];
    }
    qtab_seen_[static_cast<size_t>(id)] = true;
  }
}

void Reader::read_dht(size_t at, size_t end) {
  while (at < end) {
    if (end - at < 17) fail("DHT", "truncated table header");
    const uint8_t tc_th = bytes_[at++];
    const int cls = tc_th >> 4;
    const int id = tc_th & 0x0F;
    if (cls > 1) fail("DHT", "table class " + std::to_string(cls));
    if (id > 3) fail("DHT", "table id " + std::to_string(id));
    HuffSpec spec;
    size_t total = 0;
    for (int i = 0; i < 16; ++i) {
      spec.bits[static_cast<size_t>(i)] = bytes_[at++];
      total += spec.bits[static_cast<size_t>(i)];
    }
    if (total > 256) fail("DHT", std::to_string(total) + " codes > 256");
    if (end - at < total) fail("DHT", "symbols truncated");
    spec.vals.assign(bytes_.begin() + static_cast<long>(at),
                     bytes_.begin() + static_cast<long>(at + total));
    at += total;
    // T.81 F.1.2: DC differences have categories 0..11 and AC coefficients
    // sizes 1..10 (size 0 marks EOB, ZRL and EOB runs).
    for (const uint8_t sym : spec.vals) {
      if (cls == 0 && sym > 11) {
        fail("DHT", "DC category " + std::to_string(sym) + " > 11");
      }
      if (cls == 1 && (sym & 0x0F) > 10) {
        fail("DHT", "AC size " + std::to_string(sym & 0x0F) + " > 10");
      }
    }
    (cls == 0 ? dc_ : ac_)[static_cast<size_t>(id)] = std::move(spec);
    (cls == 0 ? dc_seen_ : ac_seen_)[static_cast<size_t>(id)] = true;
  }
}

void Reader::read_sof(uint8_t code, size_t at, size_t end) {
  // One frame per stream: a second header would redefine the component
  // layout the tables and scans were checked against.
  if (frame_.sof != 0) fail("SOF", "second frame header");
  if (code != kSOF0 && code != kSOF2) {
    fail("SOF", "unsupported frame type SOF" + std::to_string(code - 0xC0));
  }
  if (want_sof_ != 0 && code != want_sof_) {
    fail("SOF", code == kSOF2 ? "progressive frame (SOF2)"
                              : "baseline frame (SOF0)");
  }
  if (end - at < 6) fail("SOF", "truncated");
  if (bytes_[at] != 8) {
    fail("SOF", "precision " + std::to_string(bytes_[at]) + " != 8");
  }
  Frame f;
  f.sof = code;
  f.height = (bytes_[at + 1] << 8) | bytes_[at + 2];
  f.width = (bytes_[at + 3] << 8) | bytes_[at + 4];
  if (f.width == 0 || f.height == 0) fail("SOF", "empty frame");
  f.ncomp = bytes_[at + 5];
  if (f.ncomp != 1 && f.ncomp != 3) {
    fail("SOF", std::to_string(f.ncomp) + " components");
  }
  if (end - at != 6 + 3 * static_cast<size_t>(f.ncomp)) {
    fail("SOF", "length does not match the component count");
  }
  for (int c = 0; c < f.ncomp; ++c) {
    const size_t q = at + 6 + 3 * static_cast<size_t>(c);
    f.id[static_cast<size_t>(c)] = bytes_[q];
    for (int o = 0; o < c; ++o) {
      if (f.id[static_cast<size_t>(o)] == bytes_[q]) {
        fail("SOF", "duplicate component id");
      }
    }
    const uint8_t hv = bytes_[q + 1];
    if (c == 0 && f.ncomp == 3 && hv == 0x22) {
      f.sub420 = true;
    } else if (hv != 0x11) {
      fail("SOF", "unsupported sampling factors");
    }
    f.qtab[static_cast<size_t>(c)] = bytes_[q + 2];
    if (bytes_[q + 2] > 3) fail("SOF", "quant table id");
  }
  // A CoeffImage holds one chroma table.
  if (f.ncomp == 3 && f.qtab[1] != f.qtab[2]) {
    fail("SOF", "Cb and Cr use different quant tables");
  }
  frame_ = f;
}

void Reader::read_app9(size_t at, size_t end) {
  // Foreign APP9 payloads are skipped like any APPn.
  if (end - at < 4 || bytes_[at] != kCmMagic[0] ||
      bytes_[at + 1] != kCmMagic[1] || bytes_[at + 2] != kCmMagic[2] ||
      (bytes_[at + 3] != kCmBaselineTag &&
       bytes_[at + 3] != kCmProgressiveTag)) {
    return;
  }
  const uint8_t tag = bytes_[at + 3];
  if (cm_tag_ != 0) fail("APP9", "second cm tag");
  // magic + version, and for DCMC the payload length and CRC-32.
  const size_t body = tag == kCmBaselineTag ? 13 : 5;
  if (end - at != body) fail("APP9", "cm tag length");
  if (bytes_[at + 4] != kCmVersion) fail("APP9", "cm version");
  if (tag == kCmBaselineTag) {
    cm_len_ = u32(at + 5);
    cm_crc_ = u32(at + 9);
  }
  cm_tag_ = tag;
}

void Reader::read_sos(size_t at, size_t end, Scan* scan) {
  if (frame_.sof == 0) fail("SOS", "scan before SOF");
  if (at == end) fail("SOS", "truncated");
  const bool progressive = frame_.sof == kSOF2;
  Scan s;
  s.ns = bytes_[at];
  if (s.ns < 1 || s.ns > frame_.ncomp) {
    fail("SOS", std::to_string(s.ns) + " components");
  }
  const size_t ns = static_cast<size_t>(s.ns);
  if (end - at != 1 + 2 * ns + 3) {
    fail("SOS", "length does not match the component count");
  }
  for (size_t i = 0; i < ns; ++i) {
    const uint8_t selector = bytes_[at + 1 + 2 * i];
    const uint8_t tables = bytes_[at + 2 + 2 * i];
    size_t c = 0;
    while (c < static_cast<size_t>(frame_.ncomp) && frame_.id[c] != selector) {
      ++c;
    }
    if (c == static_cast<size_t>(frame_.ncomp)) {
      fail("SOS", "selector names no frame component");
    }
    if (i > 0 && static_cast<int>(c) <= s.comp[i - 1]) {
      fail("SOS", "components out of frame order");
    }
    s.comp[i] = static_cast<int>(c);
    s.dc[i] = tables >> 4;
    s.ac[i] = tables & 0x0F;
    if (s.dc[i] > 3 || s.ac[i] > 3) fail("SOS", "Huffman table id");
    const size_t tq = static_cast<size_t>(frame_.qtab[c]);
    if (!qtab_seen_[tq]) {
      fail("SOS", "component uses undefined DQT table " + std::to_string(tq));
    }
  }
  const size_t q = at + 1 + 2 * ns;
  s.ss = bytes_[q];
  s.se = bytes_[q + 1];
  if (bytes_[q + 2] != 0) {
    fail("SOS", "successive approximation (Ah/Al) unsupported");
  }
  if (!progressive) {
    if (s.ss != 0 || s.se != 63) fail("SOS", "baseline band is not 0..63");
    if (s.ns != frame_.ncomp) fail("SOS", "baseline scan lacks components");
  } else {
    if (s.ss > s.se || s.se > 63 || (s.ss == 0) != (s.se == 0)) {
      fail("SOS", "spectral band " + std::to_string(s.ss) + ".." +
                      std::to_string(s.se));
    }
    if (s.ss > 0 && s.ns != 1) fail("SOS", "AC scan of several components");
    if (restart_interval_ != 0) {
      fail("DRI", "restart interval in a progressive frame");
    }
  }
  if (cm_tag_ != 0) {
    if ((cm_tag_ == kCmProgressiveTag) != progressive) {
      fail("APP9", "cm tag does not match the frame type");
    }
    if (s.ss == 0 && s.ns != frame_.ncomp) {
      fail("SOS", "cm DC scan lacks components");
    }
  } else {
    for (size_t i = 0; i < ns; ++i) {
      if (s.ss == 0 && !dc_seen_[static_cast<size_t>(s.dc[i])]) {
        fail("SOS", "undefined DC Huffman table");
      }
      if (s.se > 0 && !ac_seen_[static_cast<size_t>(s.ac[i])]) {
        fail("SOS", "undefined AC Huffman table");
      }
    }
  }
  s.data = end;
  *scan = s;
}

CoeffImage Reader::image() const {
  CoeffImage ci;
  ci.width = frame_.width;
  ci.height = frame_.height;
  ci.format = frame_.sub420 ? ChromaFormat::k420 : ChromaFormat::k444;
  ci.quality = 0;  // unknown from the file; the tables carry it
  ci.qluma = qtab_[static_cast<size_t>(frame_.qtab[0])];
  ci.qchroma = frame_.ncomp == 3 ? qtab_[static_cast<size_t>(frame_.qtab[1])]
                                 : ci.qluma;
  ci.restart_interval = restart_interval_;
  const int mcu = frame_.sub420 ? 16 : 8;
  const int mcus_w = ceil_div(frame_.width, mcu);
  const int mcus_h = ceil_div(frame_.height, mcu);
  for (int c = 0; c < frame_.ncomp; ++c) {
    CoefComponent comp;
    const int fac = (c == 0 && frame_.sub420) ? 2 : 1;
    comp.blocks_w = mcus_w * fac;
    comp.blocks_h = mcus_h * fac;
    comp.blocks.resize(static_cast<size_t>(comp.blocks_w) * comp.blocks_h);
    ci.comps.push_back(std::move(comp));
  }
  return ci;
}

std::pair<size_t, size_t> Reader::cm_payload(const Scan& scan) const {
  // cm bytes may contain unstuffed 0xFF, so the payload is delimited by its
  // length, never by marker search; the CRC rejects corruption before the
  // model decodes garbage.
  size_t at = scan.data;
  uint32_t len = cm_len_;
  uint32_t crc = cm_crc_;
  if (cm_tag_ == kCmProgressiveTag) {
    if (bytes_.size() - at < 8) fail("scan", "cm frame truncated");
    len = u32(at);
    crc = u32(at + 4);
    at += 8;
  }
  if (len > bytes_.size() - at) fail("scan", "cm payload truncated");
  if (codec::crc32(bytes_.data() + at, len) != crc) {
    fail("scan", "cm payload CRC mismatch");
  }
  return {at, len};
}

// ----- Writer -----

void put_marker(std::vector<uint8_t>& out, uint8_t code) {
  out.push_back(0xFF);
  out.push_back(code);
}

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v & 0xFF));
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void put_cm_tag(std::vector<uint8_t>& out, uint8_t tag) {
  put_marker(out, 0xE9);
  put_u16(out, tag == kCmBaselineTag ? 2 + 4 + 1 + 4 + 4 : 2 + 4 + 1);
  out.insert(out.end(), kCmMagic, kCmMagic + 3);
  out.push_back(tag);
  out.push_back(kCmVersion);
}

namespace {

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
  for (int i = 0; i < 16; ++i) out.push_back(spec.bits[static_cast<size_t>(i)]);
  out.insert(out.end(), spec.vals.begin(), spec.vals.end());
}

}  // namespace

void put_frame_header(std::vector<uint8_t>& out, const CoeffImage& ci,
                      uint8_t code, int restart_interval, bool huffman) {
  put_dqt(out, ci.qluma, 0);
  if (!ci.gray()) put_dqt(out, ci.qchroma, 1);
  if (restart_interval > 0) {
    put_marker(out, 0xDD);
    put_u16(out, 4);
    put_u16(out, static_cast<uint16_t>(restart_interval));
  }
  put_marker(out, code);  // SOF
  const int ncomp = static_cast<int>(ci.comps.size());
  put_u16(out, static_cast<uint16_t>(8 + 3 * ncomp));
  out.push_back(8);  // precision
  put_u16(out, static_cast<uint16_t>(ci.height));
  put_u16(out, static_cast<uint16_t>(ci.width));
  out.push_back(static_cast<uint8_t>(ncomp));
  const bool sub420 = !ci.gray() && ci.format == ChromaFormat::k420;
  for (int c = 0; c < ncomp; ++c) {
    out.push_back(static_cast<uint8_t>(c + 1));  // component id
    out.push_back(static_cast<uint8_t>((c == 0 && sub420) ? 0x22 : 0x11));
    out.push_back(static_cast<uint8_t>(c == 0 ? 0 : 1));  // quant table id
  }
  if (!huffman) return;  // cm streams carry no Huffman tables
  put_dht(out, std_dc_luma(), 0, 0);
  put_dht(out, std_ac_luma(), 1, 0);
  if (!ci.gray()) {
    put_dht(out, std_dc_chroma(), 0, 1);
    put_dht(out, std_ac_chroma(), 1, 1);
  }
}

void put_sos(std::vector<uint8_t>& out, int first, int n, uint8_t luma_tables,
             uint8_t chroma_tables, int ss, int se) {
  put_marker(out, 0xDA);
  put_u16(out, static_cast<uint16_t>(6 + 2 * n));
  out.push_back(static_cast<uint8_t>(n));
  for (int c = first; c < first + n; ++c) {
    out.push_back(static_cast<uint8_t>(c + 1));
    out.push_back(c == 0 ? luma_tables : chroma_tables);
  }
  out.push_back(static_cast<uint8_t>(ss));
  out.push_back(static_cast<uint8_t>(se));
  out.push_back(0);  // Ah/Al: no successive approximation
}

// ----- Coefficient helpers -----

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

int16_t next_dc(int& pred, int diff) {
  pred += diff;
  if (pred < std::numeric_limits<int16_t>::min() ||
      pred > std::numeric_limits<int16_t>::max()) {
    throw std::runtime_error("DC " + std::to_string(pred) +
                             " out of int16 range");
  }
  return static_cast<int16_t>(pred);
}

void put_symbol(BitWriter& bw, const HuffEncoder& enc, uint8_t symbol,
                int value, int size) {
  enc.encode(bw, symbol);
  bw.put_bits(magnitude_bits(value, size), size);
}

ScanGeometry scan_geometry(const CoeffImage& ci) {
  // 4:2:0 MCUs hold 2x2 luma blocks and one block per chroma plane.
  const int f = !ci.gray() && ci.format == ChromaFormat::k420 ? 2 : 1;
  ScanGeometry g;
  g.mcus_w = ci.comps[0].blocks_w / f;
  g.mcus_h = ci.comps[0].blocks_h / f;
  g.sampling.assign(ci.comps.size(), {1, 1});
  g.sampling[0] = {f, f};
  return g;
}

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

}  // namespace dcdiff::jpeg::jfif

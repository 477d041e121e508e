// Fuzz-style property tests for the JPEG entropy layer.
//
// Deterministic (fixed-seed) randomized sweeps rather than a coverage-guided
// fuzzer: the properties are the contract, the randomness is just breadth.
//   * bitio: any write sequence reads back exactly (including the T.81 0xFF
//     stuffing rule); truncated streams throw, they never hang or read OOB.
//   * huffman: any optimized table built from any frequency profile
//     round-trips every encodable symbol sequence exactly; garbage input
//     either decodes to some symbol or throws — bounded work either way.
//   * try_decode_jfif: arbitrary corruption (truncation, bit flips, garbage)
//     surfaces as a Status error through the noexcept boundary — the serving
//     path's "errors are values" guarantee holds for inputs no test author
//     thought of. The same sweeps run over 4:2:0 and progressive (SOF2)
//     bitstreams, which exercise the subsampled MCU layout and the
//     multi-scan parser respectively.
//   * range coder / cm streams: the adaptive range decoder consumes any byte
//     string in bounded time, and truncated or corrupted cm payloads are
//     rejected as Status errors by the CRC framing, never a crash.
//   * the segment reader both decoders share: hand-built hostile streams
//     are rejected naming the segment that broke, and every header field of
//     the container oracle's streams, set to boundary values one at a time,
//     decodes or yields a Status that names a segment.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "codec/rangecoder.h"
#include "data/datasets.h"
#include "jpeg/bitio.h"
#include "jpeg/codec.h"
#include "jpeg/dcdrop.h"
#include "jpeg/huffman.h"
#include "jpeg/progressive.h"
#include "jpeg_oracle.h"
#include "support/status.h"

namespace dcdiff::jpeg {
namespace {

// ---- bitio ----

TEST(FuzzBitio, RandomWriteSequencesRoundTripExactly) {
  std::mt19937_64 rng(0xB1710u);
  constexpr int kStreams = 200;
  constexpr int kWritesPerStream = 50;  // 10k (bits,count) pairs total
  for (int s = 0; s < kStreams; ++s) {
    std::vector<std::pair<uint32_t, int>> writes;
    BitWriter bw;
    for (int i = 0; i < kWritesPerStream; ++i) {
      const int count = static_cast<int>(rng() % 25);  // 0..24 inclusive
      // Bias toward all-ones values so 0xFF bytes (and the stuffing rule)
      // appear constantly, not once in a blue moon.
      uint32_t bits = static_cast<uint32_t>(rng());
      if (rng() % 3 == 0) bits = 0xFFFFFFFFu;
      bits &= count == 0 ? 0u : (0xFFFFFFFFu >> (32 - count));
      writes.emplace_back(bits, count);
      bw.put_bits(bits, count);
    }
    const std::vector<uint8_t> bytes = bw.finish();
    BitReader br(bytes.data(), bytes.size());
    for (const auto& [bits, count] : writes) {
      ASSERT_EQ(br.get_bits(count), bits) << "stream " << s;
    }
  }
}

TEST(FuzzBitio, TruncatedStreamsThrowInsteadOfHanging) {
  std::mt19937_64 rng(0xB1711u);
  for (int s = 0; s < 100; ++s) {
    BitWriter bw;
    const int writes = 8 + static_cast<int>(rng() % 16);
    for (int i = 0; i < writes; ++i) {
      bw.put_bits(static_cast<uint32_t>(rng()) & 0xFFFu, 12);
    }
    std::vector<uint8_t> bytes = bw.finish();
    bytes.resize(rng() % bytes.size());  // strict truncation
    BitReader br(bytes.data(), bytes.size());
    // Reading everything the writer wrote must hit the end and throw; bits
    // read before that must be a prefix of the original (no OOB garbage).
    EXPECT_THROW(
        {
          for (int i = 0; i < writes; ++i) br.get_bits(12);
        },
        std::runtime_error);
  }
}

TEST(FuzzBitio, InvalidCountsAreRejected) {
  BitWriter bw;
  EXPECT_THROW(bw.put_bits(0, -1), std::invalid_argument);
  EXPECT_THROW(bw.put_bits(0, 25), std::invalid_argument);
  const uint8_t byte = 0xAB;
  BitReader br(&byte, 1);
  EXPECT_THROW(br.get_bits(-1), std::invalid_argument);
  EXPECT_THROW(br.get_bits(25), std::invalid_argument);
}

// ---- huffman ----

TEST(FuzzHuffman, RandomOptimizedTablesRoundTripExactly) {
  std::mt19937_64 rng(0x4F55u);
  constexpr int kTables = 400;
  constexpr int kSymbolsPerTable = 25;  // 10k encode/decode pairs total
  for (int t = 0; t < kTables; ++t) {
    // Random alphabet: size 1 (degenerate single-code table) up to 256,
    // frequencies spanning several orders of magnitude so both balanced and
    // deeply skewed trees occur.
    const int alphabet = 1 + static_cast<int>(rng() % 256);
    std::array<uint64_t, 256> freq{};
    std::vector<uint8_t> symbols;
    while (symbols.empty()) {
      for (int a = 0; a < alphabet; ++a) {
        const auto sym = static_cast<uint8_t>(rng() % 256);
        if (freq[sym] == 0) symbols.push_back(sym);
        freq[sym] += 1 + (rng() % (1ull << (rng() % 20)));
      }
    }
    const HuffSpec spec = build_optimized_spec(freq);
    const HuffEncoder enc(spec);
    const HuffDecoder dec(spec);

    std::vector<uint8_t> message;
    BitWriter bw;
    for (int i = 0; i < kSymbolsPerTable; ++i) {
      const uint8_t sym = symbols[rng() % symbols.size()];
      message.push_back(sym);
      enc.encode(bw, sym);
    }
    const std::vector<uint8_t> bytes = bw.finish();
    BitReader br(bytes.data(), bytes.size());
    for (size_t i = 0; i < message.size(); ++i) {
      ASSERT_EQ(dec.decode(br), message[i]) << "table " << t << " sym " << i;
    }
  }
}

TEST(FuzzHuffman, StandardTablesRoundTripAllSymbols) {
  for (const HuffSpec* spec : {&std_dc_luma(), &std_dc_chroma(),
                               &std_ac_luma(), &std_ac_chroma()}) {
    const HuffEncoder enc(*spec);
    const HuffDecoder dec(*spec);
    BitWriter bw;
    for (const uint8_t sym : spec->vals) enc.encode(bw, sym);
    const std::vector<uint8_t> bytes = bw.finish();
    BitReader br(bytes.data(), bytes.size());
    for (const uint8_t sym : spec->vals) EXPECT_EQ(dec.decode(br), sym);
  }
}

TEST(FuzzHuffman, GarbageBitsDecodeOrThrowNeverHang) {
  std::mt19937_64 rng(0x4F56u);
  const HuffDecoder dec(std_ac_luma());
  for (int s = 0; s < 200; ++s) {
    std::vector<uint8_t> bytes(1 + rng() % 32);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng());
      if (b == 0xFF) b = 0xFE;  // raw 0xFF is a marker, not scan data
    }
    BitReader br(bytes.data(), bytes.size());
    // Each decode consumes >= 1 bit, so this loop is bounded; any outcome
    // (symbol or exception) is acceptable, hanging or crashing is not.
    try {
      for (int i = 0; i < 256; ++i) (void)dec.decode(br);
    } catch (const std::runtime_error&) {
      // invalid code or exhausted input — both fine
    }
  }
}

TEST(FuzzHuffman, EncoderRejectsSymbolsWithoutCodes) {
  std::array<uint64_t, 256> freq{};
  freq[7] = 10;
  freq[9] = 3;
  const HuffEncoder enc(build_optimized_spec(freq));
  BitWriter bw;
  EXPECT_NO_THROW(enc.encode(bw, 7));
  EXPECT_THROW(enc.encode(bw, 8), std::runtime_error);
  std::array<uint64_t, 256> empty{};
  EXPECT_THROW(build_optimized_spec(empty), std::invalid_argument);
}

// ---- try_decode_jfif under corruption ----

class FuzzCodec : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Image img = data::dataset_image(data::DatasetId::kKodak, 0, 48);
    CoeffImage ci = forward_transform(img, 50);
    drop_dc(ci);
    bytes_ = new std::vector<uint8_t>(encode_jfif(ci));
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }
  static const std::vector<uint8_t>& bytes() { return *bytes_; }

  static std::vector<uint8_t>* bytes_;
};

std::vector<uint8_t>* FuzzCodec::bytes_ = nullptr;

TEST_F(FuzzCodec, IntactStreamDecodes) {
  CoeffImage out;
  const Status st = try_decode_jfif(bytes(), &out);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
}

TEST_F(FuzzCodec, TruncationsNeverSucceedSilentlyWrong) {
  // try_decode_jfif is noexcept: an escaping exception would abort the test
  // binary, so merely completing this sweep proves the no-throw contract.
  CoeffImage full;
  ASSERT_TRUE(try_decode_jfif(bytes(), &full).is_ok());
  int errors = 0;
  for (size_t len = 0; len < bytes().size(); ++len) {
    std::vector<uint8_t> cut(bytes().begin(),
                             bytes().begin() + static_cast<long>(len));
    CoeffImage out;
    const Status st = try_decode_jfif(cut, &out);
    if (!st.is_ok()) {
      ++errors;
      continue;
    }
    // A tolerated truncation (e.g. a lost trailing EOI marker after all
    // entropy data) may succeed — but only with exactly the full stream's
    // coefficients. Silent corruption is the failure mode this sweep exists
    // to catch.
    ASSERT_EQ(out.comps.size(), full.comps.size()) << "truncation at " << len;
    for (size_t c = 0; c < full.comps.size(); ++c) {
      ASSERT_EQ(out.comps[c].blocks, full.comps[c].blocks)
          << "silently corrupted decode, truncation at " << len;
    }
  }
  // The overwhelming majority of cuts land inside headers or scan data and
  // must be detected.
  EXPECT_GT(errors, static_cast<int>(bytes().size() * 9 / 10));
}

TEST_F(FuzzCodec, RandomBitFlipsNeverThrow) {
  std::mt19937_64 rng(0xC0DECu);
  for (int s = 0; s < 300; ++s) {
    std::vector<uint8_t> mutated = bytes();
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<uint8_t>(1u << (rng() % 8));
    }
    CoeffImage out;
    const Status st = try_decode_jfif(mutated, &out);  // must not throw/hang
    if (!st.is_ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
                  st.code() == StatusCode::kInvalidArgument)
          << st.to_string();
    }
  }
}

TEST_F(FuzzCodec, RandomGarbageNeverThrows) {
  std::mt19937_64 rng(0xC0DEDu);
  for (int s = 0; s < 300; ++s) {
    std::vector<uint8_t> garbage(rng() % 512);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng());
    CoeffImage out;
    const Status st = try_decode_jfif(garbage, &out);
    EXPECT_FALSE(st.is_ok());
  }
}

// ---- restart-interval (DRI/RSTn) bitstreams under corruption ----
//
// Restart markers add a second code path through the scan decoder (marker
// resynchronization, DC predictor resets, error containment per restart
// segment) that the plain sweeps above never touch. The contract differs
// from the no-RST sweeps: corruption either surfaces as a Status error or is
// *contained* — damaged segments decode to zeros while intact coefficients
// keep their exact values — never a hang, an escaping throw, or a silently
// wrong (non-zero, non-matching) coefficient.

class FuzzCodecRestart : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Image img = data::dataset_image(data::DatasetId::kKodak, 1, 48);
    CoeffImage ci = forward_transform(img, 50);
    drop_dc(ci);
    ci.restart_interval = 2;  // several RSTn markers across a 48x48 image
    bytes_ = new std::vector<uint8_t>(encode_jfif(ci));
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }
  static const std::vector<uint8_t>& bytes() { return *bytes_; }

  static std::vector<uint8_t>* bytes_;
};

std::vector<uint8_t>* FuzzCodecRestart::bytes_ = nullptr;

TEST_F(FuzzCodecRestart, IntactStreamDecodesWithInterval) {
  CoeffImage out;
  const Status st = try_decode_jfif(bytes(), &out);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(out.restart_interval, 2);
  // The stream must actually contain restart markers, or this whole suite
  // exercises nothing: RST0..RST7 are 0xFF 0xD0..0xD7.
  int rst_markers = 0;
  for (size_t i = 0; i + 1 < bytes().size(); ++i) {
    if (bytes()[i] == 0xFF && bytes()[i + 1] >= 0xD0 && bytes()[i + 1] <= 0xD7) {
      ++rst_markers;
    }
  }
  EXPECT_GT(rst_markers, 2);
}

TEST_F(FuzzCodecRestart, TruncationsErrorOrContainDamage) {
  CoeffImage full;
  ASSERT_TRUE(try_decode_jfif(bytes(), &full).is_ok());
  int errors = 0;
  for (size_t len = 0; len < bytes().size(); ++len) {
    std::vector<uint8_t> cut(bytes().begin(),
                             bytes().begin() + static_cast<long>(len));
    CoeffImage out;
    const Status st = try_decode_jfif(cut, &out);
    if (!st.is_ok()) {
      ++errors;
      continue;
    }
    // Containment contract: a truncated prefix decodes the same bits as the
    // full stream up to the cut, and the damaged remainder of the hit
    // segment (plus nothing else — earlier segments are intact) stays zero.
    // So every coefficient is either exactly the full decode's value or a
    // contained zero; anything else is silent corruption.
    ASSERT_EQ(out.comps.size(), full.comps.size()) << "truncation at " << len;
    for (size_t c = 0; c < full.comps.size(); ++c) {
      ASSERT_EQ(out.comps[c].blocks.size(), full.comps[c].blocks.size())
          << "truncation at " << len;
      for (size_t b = 0; b < full.comps[c].blocks.size(); ++b) {
        const auto& ob = out.comps[c].blocks[b];
        const auto& fb = full.comps[c].blocks[b];
        for (size_t k = 0; k < ob.size(); ++k) {
          ASSERT_TRUE(ob[k] == 0 || ob[k] == fb[k])
              << "silently corrupted coefficient " << k << " of block " << b
              << " comp " << c << ", truncation at " << len;
        }
      }
    }
  }
  // Cuts anywhere before the scan's last restart segment cannot produce all
  // the segments the frame needs, so the vast majority must still error.
  EXPECT_GT(errors, static_cast<int>(bytes().size() * 3 / 4));
}

TEST_F(FuzzCodecRestart, RandomBitFlipsNeverThrow) {
  std::mt19937_64 rng(0xD51Fu);
  for (int s = 0; s < 300; ++s) {
    std::vector<uint8_t> mutated = bytes();
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<uint8_t>(1u << (rng() % 8));
    }
    CoeffImage out;
    const Status st = try_decode_jfif(mutated, &out);  // must not throw/hang
    if (!st.is_ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
                  st.code() == StatusCode::kInvalidArgument)
          << st.to_string();
    }
  }
}

TEST_F(FuzzCodecRestart, CorruptedRestartMarkersNeverThrow) {
  // Target the RSTn markers themselves: replace each marker byte pair with
  // other markers, swapped sequence numbers, or non-marker bytes. Breaking
  // resynchronization must degrade to a Status error (or a contained decode
  // with the interval's error-containment), never an exception or hang.
  std::mt19937_64 rng(0xD520u);
  std::vector<size_t> rst_positions;
  for (size_t i = 0; i + 1 < bytes().size(); ++i) {
    if (bytes()[i] == 0xFF && bytes()[i + 1] >= 0xD0 && bytes()[i + 1] <= 0xD7) {
      rst_positions.push_back(i);
    }
  }
  ASSERT_FALSE(rst_positions.empty());
  for (int s = 0; s < 200; ++s) {
    std::vector<uint8_t> mutated = bytes();
    const size_t pos = rst_positions[rng() % rst_positions.size()];
    switch (rng() % 4) {
      case 0:  // wrong sequence number
        mutated[pos + 1] = static_cast<uint8_t>(0xD0 + (rng() % 8));
        break;
      case 1:  // different marker entirely (DHT/SOS/EOI/...)
        mutated[pos + 1] = static_cast<uint8_t>(rng() % 256);
        break;
      case 2:  // marker prefix destroyed
        mutated[pos] = static_cast<uint8_t>(rng() % 0xFF);
        break;
      default:  // marker deleted
        mutated.erase(mutated.begin() + static_cast<long>(pos),
                      mutated.begin() + static_cast<long>(pos) + 2);
        break;
    }
    CoeffImage out;
    const Status st = try_decode_jfif(mutated, &out);  // must not throw/hang
    if (!st.is_ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
                  st.code() == StatusCode::kInvalidArgument)
          << st.to_string();
    }
  }
}

// ---- 4:2:0 bitstreams under corruption ----
//
// Subsampled streams use the 16x16 MCU layout (four luma blocks per MCU)
// that the 4:4:4 sweeps above never touch.

class FuzzCodec420 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Image img = data::dataset_image(data::DatasetId::kKodak, 2, 48);
    CoeffImage ci = forward_transform(img, 50, ChromaFormat::k420);
    drop_dc(ci);
    bytes_ = new std::vector<uint8_t>(encode_jfif(ci));
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }
  static const std::vector<uint8_t>& bytes() { return *bytes_; }

  static std::vector<uint8_t>* bytes_;
};

std::vector<uint8_t>* FuzzCodec420::bytes_ = nullptr;

TEST_F(FuzzCodec420, IntactStreamDecodes) {
  CoeffImage out;
  const Status st = try_decode_jfif(bytes(), &out);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(out.format, ChromaFormat::k420);
}

TEST_F(FuzzCodec420, TruncationsNeverSucceedSilentlyWrong) {
  CoeffImage full;
  ASSERT_TRUE(try_decode_jfif(bytes(), &full).is_ok());
  int errors = 0;
  for (size_t len = 0; len < bytes().size(); ++len) {
    std::vector<uint8_t> cut(bytes().begin(),
                             bytes().begin() + static_cast<long>(len));
    CoeffImage out;
    const Status st = try_decode_jfif(cut, &out);
    if (!st.is_ok()) {
      ++errors;
      continue;
    }
    ASSERT_EQ(out.comps.size(), full.comps.size()) << "truncation at " << len;
    for (size_t c = 0; c < full.comps.size(); ++c) {
      ASSERT_EQ(out.comps[c].blocks, full.comps[c].blocks)
          << "silently corrupted decode, truncation at " << len;
    }
  }
  EXPECT_GT(errors, static_cast<int>(bytes().size() * 9 / 10));
}

TEST_F(FuzzCodec420, RandomBitFlipsNeverThrow) {
  std::mt19937_64 rng(0x420Fu);
  for (int s = 0; s < 300; ++s) {
    std::vector<uint8_t> mutated = bytes();
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<uint8_t>(1u << (rng() % 8));
    }
    CoeffImage out;
    const Status st = try_decode_jfif(mutated, &out);  // must not throw/hang
    if (!st.is_ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
                  st.code() == StatusCode::kInvalidArgument)
          << st.to_string();
    }
  }
}

// ---- progressive (SOF2) bitstreams under corruption ----
//
// The multi-scan parser has its own marker loop, SOS/band validation, and
// per-scan entropy decode; try_decode_progressive must uphold the same
// "errors are values" contract as the baseline boundary. Both entropy kinds
// are swept: Huffman scans and cm-framed (length+CRC) scans.

class FuzzProgressive : public ::testing::TestWithParam<EntropyKind> {
 protected:
  std::vector<uint8_t> make_bytes() const {
    const Image img = data::dataset_image(data::DatasetId::kKodak, 3, 48);
    CoeffImage ci = forward_transform(img, 50, ChromaFormat::k420);
    drop_dc(ci);
    return encode_progressive(ci, ProgressiveConfig(), GetParam());
  }
};

TEST_P(FuzzProgressive, IntactStreamDecodes) {
  const auto bytes = make_bytes();
  EXPECT_TRUE(is_progressive(bytes));
  CoeffImage out;
  const Status st = try_decode_progressive(bytes, &out);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(out.format, ChromaFormat::k420);
}

TEST_P(FuzzProgressive, TruncationsNeverCrash) {
  // try_decode_progressive is noexcept: completing the sweep proves the
  // no-throw contract under every possible truncation point.
  const auto bytes = make_bytes();
  int errors = 0;
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(len));
    CoeffImage out;
    if (!try_decode_progressive(cut, &out).is_ok()) ++errors;
  }
  EXPECT_GT(errors, static_cast<int>(bytes.size() / 2));
}

TEST_P(FuzzProgressive, RandomBitFlipsNeverThrow) {
  const auto bytes = make_bytes();
  std::mt19937_64 rng(0x50F2u);
  for (int s = 0; s < 300; ++s) {
    std::vector<uint8_t> mutated = bytes;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<uint8_t>(1u << (rng() % 8));
    }
    CoeffImage out;
    const Status st = try_decode_progressive(mutated, &out);
    if (!st.is_ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
                  st.code() == StatusCode::kInvalidArgument)
          << st.to_string();
    }
  }
}

TEST_P(FuzzProgressive, RandomGarbageNeverThrows) {
  std::mt19937_64 rng(0x50F3u);
  for (int s = 0; s < 300; ++s) {
    std::vector<uint8_t> garbage(rng() % 512);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng());
    CoeffImage out;
    EXPECT_FALSE(try_decode_progressive(garbage, &out).is_ok());
  }
}

INSTANTIATE_TEST_SUITE_P(EntropyKinds, FuzzProgressive,
                         ::testing::Values(EntropyKind::kHuffman,
                                           EntropyKind::kCm),
                         [](const auto& info) {
                           return info.param == EntropyKind::kCm ? "Cm"
                                                                 : "Huffman";
                         });

// ---- marker segments of encoder-written streams ----

// One length-carrying marker segment: the offset of its 0xFF, its code and
// its length field (which counts itself, not the marker).
struct Segment {
  size_t pos;
  uint8_t code;
  size_t len;
  size_t body() const { return pos + 4; }
  size_t end() const { return pos + 2 + len; }
};

size_t get16(const std::vector<uint8_t>& b, size_t at) {
  return (static_cast<size_t>(b[at]) << 8) | b[at + 1];
}

size_t get32(const std::vector<uint8_t>& b, size_t at) {
  return (get16(b, at) << 16) | get16(b, at + 2);
}

// Every segment of a well-formed stream in order, stepping over scan data:
// Huffman data ends at the next marker that is neither stuffing nor RSTn;
// cm data is length-framed (by the DCMC tag, or a u32 per DCMP scan).
std::vector<Segment> segments_of(const std::vector<uint8_t>& b) {
  std::vector<Segment> out;
  size_t cm_len = 0;
  bool cm_framed_scans = false;
  size_t p = 2;  // past SOI
  while (p + 4 <= b.size() && b[p] == 0xFF && b[p + 1] != 0xD9) {
    const Segment seg{p, b[p + 1], get16(b, p + 2)};
    out.push_back(seg);
    p = seg.end();
    if (seg.code == 0xE9 && b[seg.body() + 3] == 'C') {
      cm_len = get32(b, seg.body() + 5);
    }
    if (seg.code == 0xE9 && b[seg.body() + 3] == 'P') cm_framed_scans = true;
    if (seg.code != 0xDA) continue;
    if (cm_framed_scans) {
      p += 8 + get32(b, p);
    } else if (cm_len > 0) {
      p += cm_len;
    } else {
      while (p + 1 < b.size() &&
             (b[p] != 0xFF || b[p + 1] == 0x00 ||
              (b[p + 1] >= 0xD0 && b[p + 1] <= 0xD7))) {
        ++p;
      }
    }
  }
  return out;
}

// The first segment with marker `code`; the test fails without one.
Segment first_segment(const std::vector<uint8_t>& bytes, uint8_t code) {
  for (const Segment& seg : segments_of(bytes)) {
    if (seg.code == code) return seg;
  }
  ADD_FAILURE() << "no segment 0xFF" << std::hex << int{code};
  return {0, 0, 0};
}

// `bytes` with its first segment of marker 0xFF `code` repeated right after
// itself.
std::vector<uint8_t> duplicate_segment(const std::vector<uint8_t>& bytes,
                                       uint8_t code) {
  const Segment seg = first_segment(bytes, code);
  std::vector<uint8_t> out(bytes.begin(),
                           bytes.begin() + static_cast<long>(seg.end()));
  out.insert(out.end(), bytes.begin() + static_cast<long>(seg.pos),
             bytes.end());
  return out;
}

// ---- repeated frame headers ----

// A stream carries one frame, so a repeated frame header is a typed error
// in both parsers. Accepting it would let the second header append to or
// overwrite the component layout the tables and scans were checked
// against: a grayscale stream would decode with two components, which
// later stages index as three.
TEST(FuzzFrameHeader, RepeatedFrameHeaderIsTypedError) {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 0, 32);
  for (const Image& src : {to_gray(img), img}) {
    const CoeffImage ci = forward_transform(src, 50);
    for (const EntropyKind kind : {EntropyKind::kHuffman, EntropyKind::kCm}) {
      const auto prog = duplicate_segment(
          encode_progressive(ci, ProgressiveConfig(), kind), 0xC2);
      CoeffImage out;
      Status st = try_decode_progressive(prog, &out);
      EXPECT_EQ(st.code(), StatusCode::kDataLoss)
          << src.channels() << " channels: " << st.to_string();

      const auto base = duplicate_segment(encode_jfif(ci, kind), 0xC0);
      st = try_decode_jfif(base, &out);
      EXPECT_EQ(st.code(), StatusCode::kDataLoss)
          << src.channels() << " channels: " << st.to_string();
    }
  }
}

// ---- container regressions ----
//
// Streams no encoder writes. Both decoders must reject each one with a
// kDataLoss Status that names the segment that broke.

Status decode_as(bool progressive, const std::vector<uint8_t>& bytes) {
  CoeffImage out;
  return progressive ? try_decode_progressive(bytes, &out)
                     : try_decode_jfif(bytes, &out);
}

void expect_rejected(const Status& st, const std::string& segment) {
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_NE(st.message().find(segment), std::string::npos) << st.message();
}

void put_segment(std::vector<uint8_t>& out, uint8_t code,
                 const std::vector<uint8_t>& body) {
  const size_t len = body.size() + 2;
  out.insert(out.end(), {0xFF, code, static_cast<uint8_t>(len >> 8),
                         static_cast<uint8_t>(len)});
  out.insert(out.end(), body.begin(), body.end());
}

std::vector<uint8_t> dht_body(int cls, const HuffSpec& spec) {
  std::vector<uint8_t> body = {static_cast<uint8_t>(cls << 4)};
  body.insert(body.end(), spec.bits.begin(), spec.bits.end());
  body.insert(body.end(), spec.vals.begin(), spec.vals.end());
  return body;
}

// A gray 128x128 frame (SOF0 or SOF2) with one scan in which every one of
// its 256 blocks codes DC category `cat` with magnitude bits `bits` under
// the DC table `dc`, and no AC. The progressive form is its DC scan alone.
std::vector<uint8_t> gray_dc_stream(bool progressive, const HuffSpec& dc,
                                    int cat, uint32_t bits) {
  std::vector<uint8_t> out = {0xFF, 0xD8};
  std::vector<uint8_t> dqt(1 + kBlockSamples, 1);
  dqt[0] = 0;  // 8-bit table 0
  put_segment(out, 0xDB, dqt);
  put_segment(out, progressive ? 0xC2 : 0xC0,
              {8, 0, 128, 0, 128, 1, 1, 0x11, 0});
  put_segment(out, 0xC4, dht_body(0, dc));
  put_segment(out, 0xC4, dht_body(1, std_ac_luma()));
  put_segment(out, 0xDA,
              {1, 1, 0x00, 0, static_cast<uint8_t>(progressive ? 0 : 63), 0});
  const HuffEncoder dc_enc(dc), ac_enc(std_ac_luma());
  BitWriter bw;
  for (int b = 0; b < 256; ++b) {
    dc_enc.encode(bw, static_cast<uint8_t>(cat));
    bw.put_bits(bits, cat);
    if (!progressive) ac_enc.encode(bw, 0x00);  // EOB
  }
  const std::vector<uint8_t> scan = bw.finish();
  out.insert(out.end(), scan.begin(), scan.end());
  out.insert(out.end(), {0xFF, 0xD9});
  return out;
}

TEST(FuzzContainer, ZeroLengthApp9IsTypedError) {
  const std::vector<uint8_t> bytes = {0xFF, 0xD8, 0xFF, 0xE9, 0x00, 0x00};
  for (const bool progressive : {false, true}) {
    expect_rejected(decode_as(progressive, bytes), "APP9");
  }
}

TEST(FuzzContainer, DcCategoryAbove11IsRejectedAtDht) {
  // A 1-bit code for category 24 and +2^24-1 per block walked the int DC
  // predictor past INT_MAX.
  HuffSpec cat24;
  cat24.bits[0] = 1;
  cat24.vals = {24};
  for (const bool progressive : {false, true}) {
    expect_rejected(
        decode_as(progressive, gray_dc_stream(progressive, cat24, 24,
                                              (1u << 24) - 1)),
        "DHT");
  }
}

TEST(FuzzContainer, DcOutsideInt16IsTypedScanError) {
  for (const bool progressive : {false, true}) {
    // The builder's streams are legal: +1 per block sums to 256.
    CoeffImage out;
    const auto ok = gray_dc_stream(progressive, std_dc_luma(), 1, 1);
    const Status built = progressive ? try_decode_progressive(ok, &out)
                                     : try_decode_jfif(ok, &out);
    ASSERT_TRUE(built.is_ok()) << built.to_string();
    EXPECT_EQ(out.comps[0].blocks.back()[0], 256);
    // Legal category-11 differences of +2047 leave int16_t after 17 blocks.
    const Status st = decode_as(
        progressive, gray_dc_stream(progressive, std_dc_luma(), 11, 2047));
    expect_rejected(st, "scan");
    EXPECT_NE(st.message().find("DC"), std::string::npos) << st.message();
  }
}

// The oracle's files of the 4:4:4 image with every segment of marker `code`
// removed.
std::vector<std::vector<uint8_t>> without_segments(uint8_t code) {
  auto files = oracle::files(oracle::images()[1]);
  for (auto& bytes : files) {
    const auto segs = segments_of(bytes);
    for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
      if (it->code != code) continue;
      bytes.erase(bytes.begin() + static_cast<long>(it->pos),
                  bytes.begin() + static_cast<long>(it->end()));
    }
  }
  return files;
}

TEST(FuzzContainer, StreamsWithoutDqtAreRejected) {
  const auto files = without_segments(0xDB);
  for (size_t k = 0; k < files.size(); ++k) {
    SCOPED_TRACE(k);
    expect_rejected(decode_as(oracle::progressive_file(k), files[k]), "DQT");
  }
}

TEST(FuzzContainer, SixteenBitDqtIsRejected) {
  auto files = oracle::files(oracle::images()[1]);
  for (size_t k = 0; k < files.size(); ++k) {
    SCOPED_TRACE(k);
    files[k][first_segment(files[k], 0xDB).body()] |= 0x10;  // Pq = 1
    expect_rejected(decode_as(oracle::progressive_file(k), files[k]), "DQT");
  }
}

TEST(FuzzContainer, EachDecoderRejectsTheOtherFrameKind) {
  const auto files = oracle::files(oracle::images()[1]);
  for (size_t k = 0; k < files.size(); ++k) {
    SCOPED_TRACE(k);
    expect_rejected(decode_as(!oracle::progressive_file(k), files[k]), "SOF");
  }
}

TEST(FuzzContainer, SniffersReadSegmentsNotCommentBytes) {
  // A COM segment right after SOI whose payload looks like the other frame
  // kind's marker.
  const auto files = oracle::files(oracle::images()[1]);
  for (size_t k = 0; k < files.size(); ++k) {
    SCOPED_TRACE(k);
    const bool progressive = oracle::progressive_file(k);
    std::vector<uint8_t> bytes = {0xFF, 0xD8};
    put_segment(bytes, 0xFE,
                {0xFF, static_cast<uint8_t>(progressive ? 0xDA : 0xC2)});
    bytes.insert(bytes.end(), files[k].begin() + 2, files[k].end());
    EXPECT_EQ(is_progressive(bytes), progressive);
    EXPECT_EQ(detect_entropy_kind(bytes), detect_entropy_kind(files[k]));
    const Status st = decode_as(progressive, bytes);
    EXPECT_TRUE(st.is_ok()) << st.to_string();
  }
}

TEST(FuzzContainer, UnsupportedScanHeadersAreRejectedAtSos) {
  const auto files = oracle::files(oracle::images()[1]);
  // Offset of the first SOS's Ss byte.
  auto band = [](const std::vector<uint8_t>& bytes) {
    const Segment sos = first_segment(bytes, 0xDA);
    return sos.body() + 1 + 2 * size_t{bytes[sos.body()]};
  };
  for (size_t k = 0; k < files.size(); ++k) {
    SCOPED_TRACE(k);
    const bool progressive = oracle::progressive_file(k);
    std::vector<uint8_t> bytes = files[k];
    if (!progressive) {
      bytes[band(bytes) + 1] = 0;  // baseline Se = 0
      expect_rejected(decode_as(false, bytes), "SOS");
      continue;
    }
    bytes[band(bytes) + 2] = 0x10;  // Ah = 1
    expect_rejected(decode_as(true, bytes), "SOS");
    bytes = files[k];
    bytes[band(bytes) + 2] = 0x01;  // Al = 1
    expect_rejected(decode_as(true, bytes), "SOS");
    bytes = files[k];
    bytes[band(bytes) + 1] = 5;  // DC scan with Se = 5
    expect_rejected(decode_as(true, bytes), "SOS");
  }
}

// ---- structure-aware mutation of the oracle's streams ----

// One header field set to one value: `mask` selects the bits of byte `at`
// (or of the 16-bit field at `at` when `wide`).
struct FieldEdit {
  size_t at;
  uint32_t value;
  uint8_t mask = 0xFF;
  bool wide = false;
};

std::vector<FieldEdit> field_edits(const std::vector<uint8_t>& b,
                                   const Segment& seg) {
  std::vector<FieldEdit> edits;
  for (const size_t len : {size_t{0}, size_t{1}, seg.len - 1, seg.len + 1,
                           size_t{0xFFFF}}) {
    edits.push_back({seg.pos + 2, static_cast<uint32_t>(len), 0xFF, true});
  }
  const size_t body = seg.body();
  auto low = [&](size_t at, uint32_t v) { edits.push_back({at, v, 0x0F}); };
  auto high = [&](size_t at, uint32_t v) {
    edits.push_back({at, v << 4, 0xF0});
  };
  switch (seg.code) {
    case 0xDB:  // DQT: Pq, Tq
      high(body, 1);
      low(body, 4);
      low(body, 15);
      break;
    case 0xC4:  // DHT: Tc, Th
      high(body, 2);
      low(body, 4);
      low(body, 15);
      break;
    case 0xC0:
    case 0xC2:  // SOF: ncomp; per component sampling and Tq
      for (const uint32_t n : {0u, 2u, 4u}) edits.push_back({body + 5, n});
      for (size_t c = 0; c < b[body + 5]; ++c) {
        const size_t comp = body + 6 + 3 * c;
        for (const uint32_t hv : {0x21u, 0x12u}) {
          edits.push_back({comp + 1, hv});
        }
        for (const uint32_t tq : {4u, 15u}) edits.push_back({comp + 2, tq});
      }
      break;
    case 0xDA: {  // SOS: selectors, Td/Ta, Ss, Se, Ah/Al
      const size_t ns = b[body];
      for (size_t i = 0; i < ns; ++i) {
        const size_t comp = body + 1 + 2 * i;
        for (const uint32_t id : {0u, 4u}) edits.push_back({comp, id});
        for (const uint32_t t : {4u, 15u}) {
          high(comp + 1, t);
          low(comp + 1, t);
        }
      }
      const size_t band = body + 1 + 2 * ns;
      for (const uint32_t v : {0u, 1u, 63u, 64u}) {
        edits.push_back({band, v});
        edits.push_back({band + 1, v});
      }
      for (const uint32_t v : {1u, 15u}) {
        high(band + 2, v);
        low(band + 2, v);
      }
      break;
    }
    case 0xDD:  // DRI
      for (const uint32_t ri : {0u, 0xFFFFu}) {
        edits.push_back({body, ri, 0xFF, true});
      }
      break;
    default:
      break;
  }
  return edits;
}

std::vector<uint8_t> apply(std::vector<uint8_t> b, const FieldEdit& e) {
  if (e.wide) {
    b[e.at] = static_cast<uint8_t>(e.value >> 8);
    b[e.at + 1] = static_cast<uint8_t>(e.value);
  } else {
    b[e.at] = static_cast<uint8_t>((b[e.at] & ~e.mask) | (e.value & e.mask));
  }
  return b;
}

TEST(FuzzContainer, HeaderFieldMutationsAreOkOrNameTheSegment) {
  const char* const kSegments[] = {"SOI", "APP", "DQT", "DHT", "SOF", "DRI",
                                   "SOS", "COM", "EOI", "scan"};
  int rejected = 0;
  int total = 0;
  for (const CoeffImage& ci : oracle::images()) {
    const auto files = oracle::files(ci);
    for (size_t k = 0; k < files.size(); ++k) {
      const bool progressive = oracle::progressive_file(k);
      for (const Segment& seg : segments_of(files[k])) {
        for (const FieldEdit& edit : field_edits(files[k], seg)) {
          const std::vector<uint8_t> bytes = apply(files[k], edit);
          if (bytes == files[k]) continue;
          ++total;
          // The sniffers answer from the same reader and must not throw.
          (void)is_progressive(bytes);
          (void)detect_entropy_kind(bytes);
          const Status st = decode_as(progressive, bytes);
          if (st.is_ok()) continue;
          ++rejected;
          ASSERT_TRUE(st.code() == StatusCode::kDataLoss ||
                      st.code() == StatusCode::kInvalidArgument)
              << st.to_string();
          bool named = false;
          for (const char* name : kSegments) {
            named = named || st.message().find(name) != std::string::npos;
          }
          EXPECT_TRUE(named) << "file " << k << " segment 0x" << std::hex
                             << int{seg.code} << ": " << st.message();
        }
      }
    }
  }
  EXPECT_GT(total, 1000);
  EXPECT_GT(rejected, total * 3 / 4);
}

// ---- range coder and cm streams under corruption ----

TEST(FuzzRangeCoder, RandomByteStringsDecodeInBoundedTime) {
  // 10k random "streams": the decoder must hand back *some* bit for every
  // query — by construction it cannot throw or read out of bounds, and past
  // the end it synthesizes zero bytes. The model/CRC layers above it are
  // what reject garbage; this layer just has to be total.
  std::mt19937_64 rng(0xA41C0DEu);
  for (int s = 0; s < 10000; ++s) {
    std::vector<uint8_t> data(rng() % 64);
    for (auto& b : data) b = static_cast<uint8_t>(rng());
    codec::RangeDecoder dec(data.data(), data.size());
    for (int i = 0; i < 128; ++i) {
      const int bit = dec.decode(static_cast<uint16_t>(1 + rng() % 4095));
      ASSERT_TRUE(bit == 0 || bit == 1);
    }
    // Past the end the decoder synthesizes zeros; renormalization consumes
    // at most a few bytes per decoded bit, so consumption stays bounded.
    ASSERT_LE(dec.byte_pos(), data.size() + 4 * 128);
  }
}

class FuzzCmCodec : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Image img = data::dataset_image(data::DatasetId::kKodak, 4, 48);
    CoeffImage ci = forward_transform(img, 50);
    drop_dc(ci);
    bytes_ = new std::vector<uint8_t>(encode_jfif(ci, EntropyKind::kCm));
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }
  static const std::vector<uint8_t>& bytes() { return *bytes_; }

  static std::vector<uint8_t>* bytes_;
};

std::vector<uint8_t>* FuzzCmCodec::bytes_ = nullptr;

TEST_F(FuzzCmCodec, IntactStreamDecodes) {
  ASSERT_EQ(detect_entropy_kind(bytes()), EntropyKind::kCm);
  CoeffImage out;
  const Status st = try_decode_jfif(bytes(), &out);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
}

TEST_F(FuzzCmCodec, EveryTruncationIsRejected) {
  // A cm stream's length+CRC framing makes every truncation that reaches
  // the payload detectable, so the contract is absolute up to the trailing
  // EOI marker (whose loss leaves the length-delimited payload intact).
  for (size_t len = 0; len + 2 < bytes().size(); ++len) {
    std::vector<uint8_t> cut(bytes().begin(),
                             bytes().begin() + static_cast<long>(len));
    CoeffImage out;
    const Status st = try_decode_jfif(cut, &out);
    ASSERT_FALSE(st.is_ok()) << "truncation at " << len;
    EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
                st.code() == StatusCode::kInvalidArgument)
        << st.to_string();
  }
}

TEST_F(FuzzCmCodec, RandomBitFlipsNeverThrow) {
  std::mt19937_64 rng(0xC4C0DEu);
  for (int s = 0; s < 300; ++s) {
    std::vector<uint8_t> mutated = bytes();
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<uint8_t>(1u << (rng() % 8));
    }
    CoeffImage out;
    const Status st = try_decode_jfif(mutated, &out);  // must not throw/hang
    if (!st.is_ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
                  st.code() == StatusCode::kInvalidArgument)
          << st.to_string();
    }
  }
}

TEST_F(FuzzCmCodec, PayloadFlipsAreCaughtByCrc) {
  // Flips inside the range-coded payload specifically (past the last
  // header byte) must always be caught by the CRC — the model never sees
  // the corrupted bytes.
  std::mt19937_64 rng(0xC4C0DFu);
  const size_t payload_region = bytes().size() - 64;  // tail is scan data
  for (int s = 0; s < 200; ++s) {
    std::vector<uint8_t> mutated = bytes();
    mutated[payload_region + rng() % 62] ^=
        static_cast<uint8_t>(1u << (rng() % 8));
    CoeffImage out;
    const Status st = try_decode_jfif(mutated, &out);
    ASSERT_FALSE(st.is_ok());
    EXPECT_NE(st.message().find("CRC"), std::string::npos) << st.message();
  }
}

}  // namespace
}  // namespace dcdiff::jpeg

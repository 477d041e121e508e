// The differential container oracle shared by test_cm_codec and
// test_fuzz_jpeg: one DC-dropped CoeffImage per frame layout (gray, 4:4:4,
// 4:2:0), each written by both encoders with both entropy coders.
#pragma once

#include <cstdint>
#include <vector>

#include "data/datasets.h"
#include "jpeg/codec.h"
#include "jpeg/dcdrop.h"
#include "jpeg/progressive.h"

namespace dcdiff::jpeg::oracle {

// Gray, 4:4:4 and 4:2:0, DC dropped the way the paper's sender does, with a
// restart interval so the baseline files carry DRI and RSTn markers.
inline std::vector<CoeffImage> images() {
  const Image img = data::dataset_image(data::DatasetId::kKodak, 0, 32);
  std::vector<CoeffImage> out;
  out.push_back(forward_transform(to_gray(img), 50));
  out.push_back(forward_transform(img, 50));
  out.push_back(forward_transform(img, 50, ChromaFormat::k420));
  for (CoeffImage& ci : out) {
    drop_dc(ci);
    ci.restart_interval = 2;
  }
  return out;
}

// The four files of one image: baseline Huffman, baseline cm, progressive
// Huffman, progressive cm.
inline std::vector<std::vector<uint8_t>> files(const CoeffImage& ci) {
  return {encode_jfif(ci, EntropyKind::kHuffman),
          encode_jfif(ci, EntropyKind::kCm),
          encode_progressive(ci, ProgressiveConfig(), EntropyKind::kHuffman),
          encode_progressive(ci, ProgressiveConfig(), EntropyKind::kCm)};
}

inline bool progressive_file(size_t k) { return k >= 2; }

}  // namespace dcdiff::jpeg::oracle

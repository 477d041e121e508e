// 8x8 forward / inverse DCT-II used by the JPEG pipeline.
//
// The transforms use the orthonormal JPEG normalisation:
//   F(u,v) = 1/4 C(u) C(v) sum_{x,y} f(x,y) cos(...) cos(...)
// so a constant block of value m has DC coefficient 8*m and all-zero ACs.
// A separable double-precision reference implementation is provided (the
// codec's accuracy anchor) together with a faster single-precision variant.
#pragma once

#include <array>

namespace dcdiff::jpeg {

constexpr int kBlockSize = 8;
constexpr int kBlockSamples = 64;

using PixelBlock = std::array<float, kBlockSamples>;  // row-major spatial
using CoefBlock = std::array<float, kBlockSamples>;   // row-major frequency

// Reference separable FDCT/IDCT (double accumulation).
void fdct8x8(const PixelBlock& in, CoefBlock& out);
void idct8x8(const CoefBlock& in, PixelBlock& out);

}  // namespace dcdiff::jpeg

#include "jpeg/dct.h"

#include <cmath>

namespace dcdiff::jpeg {
namespace {

// cos_table[u][x] = C(u) * cos((2x+1) u pi / 16) / 2, so that the 2-D
// transform is out = T * in * T^t with T = cos_table.
struct CosTable {
  double t[kBlockSize][kBlockSize];
  CosTable() {
    const double pi = std::acos(-1.0);
    for (int u = 0; u < kBlockSize; ++u) {
      const double cu = (u == 0) ? std::sqrt(0.5) : 1.0;
      for (int x = 0; x < kBlockSize; ++x) {
        t[u][x] = 0.5 * cu * std::cos((2 * x + 1) * u * pi / 16.0);
      }
    }
  }
};

const CosTable& cos_table() {
  static const CosTable table;
  return table;
}

}  // namespace

void fdct8x8(const PixelBlock& in, CoefBlock& out) {
  const auto& ct = cos_table();
  double tmp[kBlockSize][kBlockSize];
  // Rows: tmp[y][u] = sum_x in[y][x] * T[u][x]
  for (int y = 0; y < kBlockSize; ++y) {
    for (int u = 0; u < kBlockSize; ++u) {
      double acc = 0.0;
      for (int x = 0; x < kBlockSize; ++x) {
        acc += static_cast<double>(in[y * kBlockSize + x]) * ct.t[u][x];
      }
      tmp[y][u] = acc;
    }
  }
  // Columns: out[v][u] = sum_y tmp[y][u] * T[v][y]
  for (int v = 0; v < kBlockSize; ++v) {
    for (int u = 0; u < kBlockSize; ++u) {
      double acc = 0.0;
      for (int y = 0; y < kBlockSize; ++y) acc += tmp[y][u] * ct.t[v][y];
      out[v * kBlockSize + u] = static_cast<float>(acc);
    }
  }
}

void idct8x8(const CoefBlock& in, PixelBlock& out) {
  const auto& ct = cos_table();
  double tmp[kBlockSize][kBlockSize];
  // Rows: tmp[v][x] = sum_u in[v][u] * T[u][x]
  for (int v = 0; v < kBlockSize; ++v) {
    for (int x = 0; x < kBlockSize; ++x) {
      double acc = 0.0;
      for (int u = 0; u < kBlockSize; ++u) {
        acc += static_cast<double>(in[v * kBlockSize + u]) * ct.t[u][x];
      }
      tmp[v][x] = acc;
    }
  }
  // Columns: out[y][x] = sum_v tmp[v][x] * T[v][y]
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) {
      double acc = 0.0;
      for (int v = 0; v < kBlockSize; ++v) acc += tmp[v][x] * ct.t[v][y];
      out[y * kBlockSize + x] = static_cast<float>(acc);
    }
  }
}

}  // namespace dcdiff::jpeg

#include "core/tensor_image.h"

#include <algorithm>
#include <stdexcept>

#include "nn/kernels.h"

namespace dcdiff::core {

nn::Tensor rgb_to_tensor(const Image& rgb) {
  if (rgb.color_space() != ColorSpace::kRGB) {
    throw std::invalid_argument("rgb_to_tensor: not RGB");
  }
  const int h = rgb.height(), w = rgb.width();
  std::vector<float> data(static_cast<size_t>(3) * h * w);
  for (int c = 0; c < 3; ++c) {
    const auto& plane = rgb.plane(c);
    for (size_t i = 0; i < plane.size(); ++i) {
      data[static_cast<size_t>(c) * h * w + i] = plane[i] / 127.5f - 1.0f;
    }
  }
  return nn::Tensor::from_data({1, 3, h, w}, std::move(data));
}

Image tensor_to_rgb(const nn::Tensor& t) {
  if (t.ndim() != 4 || t.dim(0) != 1 || t.dim(1) != 3) {
    throw std::invalid_argument("tensor_to_rgb: expected (1,3,H,W)");
  }
  const int h = t.dim(2), w = t.dim(3);
  Image out(w, h, ColorSpace::kRGB);
  const auto& v = t.value();
  for (int c = 0; c < 3; ++c) {
    auto& plane = out.plane(c);
    for (size_t i = 0; i < plane.size(); ++i) {
      plane[i] = (v[static_cast<size_t>(c) * h * w + i] + 1.0f) * 127.5f;
    }
  }
  out.clamp();
  return out;
}

nn::Tensor tilde_to_tensor(const Image& tilde) {
  if (tilde.channels() != 3) {
    throw std::invalid_argument("tilde_to_tensor: expected 3 channels");
  }
  const int h = tilde.height(), w = tilde.width();
  std::vector<float> data(static_cast<size_t>(3) * h * w);
  for (int c = 0; c < 3; ++c) {
    const auto& plane = tilde.plane(c);
    for (size_t i = 0; i < plane.size(); ++i) {
      data[static_cast<size_t>(c) * h * w + i] = plane[i] / 128.0f;
    }
  }
  return nn::Tensor::from_data({1, 3, h, w}, std::move(data));
}

nn::Tensor stack_batch(const std::vector<nn::Tensor>& samples) {
  if (samples.empty()) throw std::invalid_argument("stack_batch: empty");
  const auto& s0 = samples.front();
  std::vector<int> shape = s0.shape();
  shape[0] = static_cast<int>(samples.size());
  std::vector<float> data;
  data.reserve(nn::shape_numel(shape));
  for (const auto& s : samples) {
    if (s.shape() != s0.shape()) {
      throw std::invalid_argument("stack_batch: shape mismatch");
    }
    data.insert(data.end(), s.value().begin(), s.value().end());
  }
  return nn::Tensor::from_data(std::move(shape), std::move(data));
}

nn::Tensor repeat_batch(const nn::Tensor& batch, int k) {
  std::vector<int> shape = nn::repeat_batch_shape(batch.shape(), k);
  if (k == 1) return batch;
  const int n = batch.dim(0);
  std::vector<float> data(batch.numel() * static_cast<size_t>(k));
  nn::k_repeat_batch(batch.value().data(), data.data(), n, k,
                     batch.numel() / static_cast<size_t>(n));
  return nn::Tensor::from_data(std::move(shape), std::move(data));
}

nn::Tensor ensemble_mean(const nn::Tensor& rows, int n, int k) {
  std::vector<int> shape = nn::ensemble_mean_shape(rows.shape(), n, k);
  if (k == 1) return rows;
  std::vector<float> data(nn::shape_numel(shape));
  nn::k_ensemble_mean(rows.value().data(), data.data(), n, k,
                      data.size() / static_cast<size_t>(n));
  return nn::Tensor::from_data(std::move(shape), std::move(data));
}

nn::Tensor take_sample(const nn::Tensor& batch, int n) {
  if (n < 0 || n >= batch.dim(0)) {
    throw std::out_of_range("take_sample: index");
  }
  std::vector<int> shape = batch.shape();
  shape[0] = 1;
  const size_t per = batch.numel() / static_cast<size_t>(batch.dim(0));
  std::vector<float> data(batch.value().begin() + static_cast<long>(n * per),
                          batch.value().begin() +
                              static_cast<long>((n + 1) * per));
  return nn::Tensor::from_data(std::move(shape), std::move(data));
}

}  // namespace dcdiff::core

// Conversions between dcdiff::Image and nn::Tensor with the normalization
// conventions used throughout the DCDiff model:
//   * RGB images ([0,255]) map to (N,3,H,W) tensors in [-1, 1].
//   * x-tilde (the signed AC-only YCbCr field from jpeg::tilde_image, values
//     roughly in [-140, 140]) maps to (N,3,H,W) tensors scaled by 1/128.
#pragma once

#include <vector>

#include "image/image.h"
#include "nn/tensor.h"

namespace dcdiff::core {

// [0,255] RGB -> [-1,1] tensor (batch of 1).
nn::Tensor rgb_to_tensor(const Image& rgb);
// [-1,1] tensor (1,3,H,W) -> clamped [0,255] RGB image.
Image tensor_to_rgb(const nn::Tensor& t);

// Signed YCbCr tilde image -> tensor scaled by 1/128 (batch of 1).
nn::Tensor tilde_to_tensor(const Image& tilde);

// Stacks single-sample tensors (1,C,H,W) into a batch (N,C,H,W).
nn::Tensor stack_batch(const std::vector<nn::Tensor>& samples);
// Extracts sample n of a batch as (1,C,H,W).
nn::Tensor take_sample(const nn::Tensor& batch, int n);
// Repeats each sample of an (N,...)-batch k times consecutively, producing
// an (N*k,...) batch ordered [s0, s0, ..., s1, s1, ...]. Used by the batched
// sampling path to fold ensemble members into the batch axis (conditioning
// features and FMPP factors are shared across a sample's members).
// Non-differentiable (inference only).
nn::Tensor repeat_batch(const nn::Tensor& batch, int k);
// The inverse fold: the (N,...) mean of each run of k consecutive samples of
// an (N*k,...) batch, members added left to right (nn::k_ensemble_mean, the
// plan's order). Non-differentiable (inference only).
nn::Tensor ensemble_mean(const nn::Tensor& rows, int n, int k);

}  // namespace dcdiff::core

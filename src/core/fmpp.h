// Frequency modulation parameter predictor (Section III-D): a small ResNet
// that predicts, per input x-tilde, the two FreeU scale factors s (backbone)
// and b (skip) used during DDIM sampling. The final sigmoid is scaled by 2 so
// both factors live in (0, 2), per the paper's constraint.
#pragma once

#include <vector>

#include "nn/modules.h"

namespace dcdiff::core {

class FMPP {
 public:
  explicit FMPP(uint64_t seed);

  struct Factors {
    nn::Tensor s;  // (N), backbone scale
    nn::Tensor b;  // (N), skip scale
  };
  // tilde: (N,3,H,W) normalized x-tilde.
  Factors forward(const nn::Tensor& tilde) const;

  std::vector<nn::Tensor> params() const;

 private:
  nn::Conv2d c1_, c2_, c3_;
  nn::Linear fc_;
};

}  // namespace dcdiff::core

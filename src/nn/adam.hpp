#pragma once

#include <vector>

#include "tensor/matrix.hpp"

namespace bnsgcn::nn {

/// Adam optimizer over an explicit parameter/gradient list (the models keep
/// gradients next to the weights; the trainer allreduces gradients before
/// calling step(), as in Algorithm 1 lines 14-15).
class Adam {
 public:
  struct Options {
    float lr = 0.01f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.0f;
  };

  Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
       const Options& opts);

  /// One Adam update using the current gradient values.
  void step();

  void zero_grads();

  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  Options opts_;
  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  std::int64_t t_ = 0;
};

} // namespace bnsgcn::nn

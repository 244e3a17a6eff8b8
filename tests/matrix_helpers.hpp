#pragma once

#include <cstdint>

#include "tensor/matrix.hpp"

namespace bnsgcn::test_helpers {

/// Frobenius norm squared, accumulated serially in double.
inline double frobenius_norm_sq(const Matrix& a) {
  double acc = 0.0;
  const float* pa = a.data();
  for (std::int64_t i = 0; i < a.size(); ++i)
    acc += static_cast<double>(pa[i]) * static_cast<double>(pa[i]);
  return acc;
}

} // namespace bnsgcn::test_helpers

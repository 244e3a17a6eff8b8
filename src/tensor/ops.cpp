#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/thread_pool.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/simd.hpp"

namespace bnsgcn::ops {

namespace {

// Block sizes chosen for L1/L2 friendliness at the feature widths used by the
// models (64-612 columns). Correctness does not depend on them; neither does
// bitwise output — detail::kBlockM is also the parallel_for grain for the
// row-split kernels, and every output element's accumulation runs to
// completion inside one block (common/thread_pool.hpp, determinism contract).
using detail::kBlockM;
constexpr std::int64_t kBlockK = 256;

} // namespace

namespace detail {

void scale_by_beta(float* first, float* last, float beta) {
  if (beta == 0.0f) {
    std::fill(first, last, 0.0f);
  } else if (beta != 1.0f) {
    for (float* p = first; p != last; ++p) *p *= beta;
  }
}

void gemm_nn_rows_scalar(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                         std::int64_t r0, std::int64_t r1, float beta,
                         std::span<const NodeId> row_map) {
  const std::int64_t k = a.cols(), n = b.cols();
  const auto c_row = [&](std::int64_t i) {
    return c.row(row_map.empty() ? i : row_map[static_cast<std::size_t>(i)]);
  };
  // The k-accumulation order per row is fixed by the k0/kk loops alone, so
  // any [r0, r1) slicing produces bit-identical rows to the full call — and
  // the same argument makes the kBlockM row blocks thread-safe lanes: each
  // owns disjoint rows of C and computes them in the serial kernel's order.
  // Blocks stay anchored at r0, matching the serial i0 tiling exactly.
  common::for_blocks(r1 - r0, kBlockM, [&](std::int64_t b0, std::int64_t b1) {
    const std::int64_t i0 = r0 + b0;
    const std::int64_t i1 = r0 + b1;
    for (std::int64_t i = i0; i < i1; ++i)
      scale_by_beta(c_row(i), c_row(i) + n, beta);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::int64_t k1 = std::min(k0 + kBlockK, k);
      for (std::int64_t i = i0; i < i1; ++i) {
        const float* arow = a.row(i);
        float* crow = c_row(i);
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b.row(kk);
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  });
}

void gemm_tn_scalar(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    float beta) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  // C[kk,j] += A[i,kk] * B[i,j]: stream rows of A and B together. Lanes
  // split the kk axis (disjoint rows of C); the i loop stays outermost
  // inside each lane, so every C element still accumulates in ascending-i
  // order with the same av==0 skips — bit-identical for any lane count.
  // (The skip must be preserved, not just cheap: adding a 0.0f term is not
  // bitwise-neutral when the accumulator holds -0.0f.)
  common::for_blocks(k, kBlockM, [&](std::int64_t kk0, std::int64_t kk1) {
    for (std::int64_t kk = kk0; kk < kk1; ++kk)
      scale_by_beta(c.row(kk), c.row(kk) + n, beta);
    for (std::int64_t i = 0; i < m; ++i) {
      const float* arow = a.row(i);
      const float* brow = b.row(i);
      for (std::int64_t kk = kk0; kk < kk1; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        float* crow = c.row(kk);
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

void gemm_nt_scalar(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    float beta) {
  const std::int64_t m = a.rows(), n = a.cols(), k = b.rows();
  // C[i,j] = dot(A.row(i), B.row(j)) — both walks are contiguous, and each
  // output row is an independent set of local dot products, so the row
  // split is trivially bit-stable.
  common::for_blocks(m, kBlockM, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = a.row(i);
      float* crow = c.row(i);
      scale_by_beta(crow, crow + k, beta);
      for (std::int64_t j = 0; j < k; ++j) {
        const float* brow = b.row(j);
        float acc = 0.0f;
        for (std::int64_t t = 0; t < n; ++t) acc += arow[t] * brow[t];
        crow[j] += acc;
      }
    }
  });
}

} // namespace detail

void gemm_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float beta) {
  BNSGCN_CHECK(c.rows() == a.rows());
  gemm_nn_rows(a, b, c, 0, a.rows(), beta);
}

void gemm_nn_rows(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                  std::int64_t r0, std::int64_t r1, float beta,
                  std::span<const NodeId> row_map) {
  BNSGCN_CHECK(b.rows() == a.cols());
  BNSGCN_CHECK(c.cols() == b.cols());
  BNSGCN_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.rows());
  if (row_map.empty()) {
    BNSGCN_CHECK(r1 <= c.rows());
  } else {
    BNSGCN_CHECK(static_cast<std::int64_t>(row_map.size()) == a.rows());
    for (std::int64_t i = r0; i < r1; ++i) {
      const NodeId r = row_map[static_cast<std::size_t>(i)];
      BNSGCN_CHECK(r >= 0 && r < c.rows());
    }
  }
  if (simd::host_has_avx512f()) {
    detail::gemm_nn_rows_avx512(a, b, c, r0, r1, beta, row_map);
  } else {
    detail::gemm_nn_rows_scalar(a, b, c, r0, r1, beta, row_map);
  }
}

void gemm_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float beta) {
  BNSGCN_CHECK(b.rows() == a.rows());
  BNSGCN_CHECK(c.rows() == a.cols() && c.cols() == b.cols());
  if (simd::host_has_avx512f()) {
    detail::gemm_tn_avx512(a, b, c, beta);
  } else {
    detail::gemm_tn_scalar(a, b, c, beta);
  }
}

void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float beta) {
  BNSGCN_CHECK(b.cols() == a.cols());
  BNSGCN_CHECK(c.rows() == a.rows() && c.cols() == b.rows());
  if (simd::host_has_avx512f()) {
    detail::gemm_nt_avx512(a, b, c, beta);
  } else {
    detail::gemm_nt_scalar(a, b, c, beta);
  }
}

void add_row_bias_rows(Matrix& x, const Matrix& bias, std::int64_t r0,
                       std::int64_t r1) {
  BNSGCN_CHECK(bias.rows() == 1 && bias.cols() == x.cols());
  BNSGCN_CHECK(0 <= r0 && r0 <= r1 && r1 <= x.rows());
  const float* pb = bias.data();
  for (std::int64_t r = r0; r < r1; ++r) {
    float* row = x.data() + r * x.cols();
    // lint: allow(float-accum) — element-wise bias add; order-independent.
    for (std::int64_t c = 0; c < x.cols(); ++c) row[c] += pb[c];
  }
}

void col_sum(const Matrix& grad, Matrix& out) {
  BNSGCN_CHECK(out.rows() == 1 && out.cols() == grad.cols());
  float* po = out.data();
  for (std::int64_t r = 0; r < grad.rows(); ++r) {
    const float* row = grad.data() + r * grad.cols();
    // lint: allow(float-accum) — serial reduction in fixed ascending row order;
    // single-threaded by contract (bias grads are tiny), so the order is fixed.
    for (std::int64_t c = 0; c < grad.cols(); ++c) po[c] += row[c];
  }
}

// Both ReLU overloads are selects on one comparison, so GCC vectorizes them
// at baseline SSE2: x > 0 keeps x, anything else (-0.0f and NaN included)
// becomes +0.0f.
void relu_forward(Matrix& x, Matrix& mask) {
  mask.resize(x.rows(), x.cols());
  float* px = x.data();
  float* pm = mask.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) {
    const bool pos = px[i] > 0.0f;
    pm[i] = pos ? 1.0f : 0.0f;
    px[i] = pos ? px[i] : 0.0f;
  }
}

void relu_backward(Matrix& grad, const Matrix& mask) {
  BNSGCN_CHECK(grad.size() == mask.size());
  float* pg = grad.data();
  const float* pm = mask.data();
  const std::int64_t n = grad.size();
  for (std::int64_t i = 0; i < n; ++i) pg[i] *= pm[i];
}

void relu_forward(Matrix& x) {
  float* px = x.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) px[i] = px[i] > 0.0f ? px[i] : 0.0f;
}

void dropout_forward(Matrix& x, Matrix& mask, float p, Rng& rng) {
  BNSGCN_CHECK(p >= 0.0f && p < 1.0f);
  // Every element of the mask is written below: a mask of the right shape
  // (a layer's, from its previous step) is reused without zero-filling it.
  mask.ensure_shape(x.rows(), x.cols());
  if (p == 0.0f) {
    mask.fill(1.0f);
    return;
  }
  const float keep_scale = 1.0f / (1.0f - p);
  // An element drops when rng.next_float() < p, i.e. when k·2^-24 < p for
  // k = next_u64() >> 40. Both scalings by 2^±24 are exact and k < 2^24 is
  // an integer, so that is k < ceil(p·2^24): the same test on integers,
  // which lets the draws run ahead of the values. Each chunk first draws
  // one k per element, in element order; then a loop the compiler
  // vectorizes turns each k into an all-ones or zero keep mask and selects
  // through it (a select written as `drop ? 0.0f : x` compiles to an
  // unpredictable branch). A dropped element becomes +0.0f with multiplier
  // +0.0f, a kept one x·keep_scale with keep_scale (docs/ARCHITECTURE.md
  // §6).
  const auto drop_below = static_cast<std::int32_t>(std::ceil(p * 0x1.0p24f));
  const auto scale_bits = std::bit_cast<std::int32_t>(keep_scale);
  constexpr std::int64_t kChunk = 256;
  std::int32_t draws[kChunk] = {};
  float* px = x.data();
  float* pm = mask.data();
  const std::int64_t n = x.size();
  // lint: allow(float-accum) — the += steps an integer chunk cursor.
  for (std::int64_t i0 = 0; i0 < n; i0 += kChunk) {
    const std::int64_t len = std::min(kChunk, n - i0);
    for (std::int64_t j = 0; j < len; ++j)
      draws[j] = static_cast<std::int32_t>(rng.next_u64() >> 40);
    float* xc = px + i0;
    float* mc = pm + i0;
    for (std::int64_t j = 0; j < len; ++j) {
      const std::int32_t keep = -static_cast<std::int32_t>(draws[j] >=
                                                           drop_below);
      const auto scaled = std::bit_cast<std::int32_t>(xc[j] * keep_scale);
      xc[j] = std::bit_cast<float>(scaled & keep);
      mc[j] = std::bit_cast<float>(scale_bits & keep);
    }
  }
}

void dropout_backward(Matrix& grad, const Matrix& mask) {
  relu_backward(grad, mask); // elementwise multiply by stored multiplier
}

void gather_rows(const Matrix& src, std::span<const NodeId> idx, Matrix& out) {
  out.resize(static_cast<std::int64_t>(idx.size()), src.cols());
  const std::int64_t d = src.cols();
  const auto n = static_cast<std::int64_t>(idx.size());
  common::for_blocks(n, kBlockM, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const NodeId r = idx[static_cast<std::size_t>(i)];
      BNSGCN_BOUNDS(r, src.rows());
      const float* s = src.data() + static_cast<std::int64_t>(r) * d;
      std::copy(s, s + d, out.data() + i * d);
    }
  });
}

void glorot_init(Matrix& w, Rng& rng) {
  const auto fan = static_cast<float>(w.rows() + w.cols());
  const float stddev = std::sqrt(2.0f / fan);
  w.randomize_gaussian(rng, stddev);
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  BNSGCN_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.size(); ++i) {
    // A NaN on one side only is as far apart as two floats get; std::max
    // would drop the NaN difference and call the pair equal.
    if (std::isnan(pa[i]) != std::isnan(pb[i]))
      return std::numeric_limits<float>::infinity();
    mx = std::max(mx, std::abs(pa[i] - pb[i]));
  }
  return mx;
}

} // namespace bnsgcn::ops

#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
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

// Column grain for the scatter-shaped kernels (scatter_add_rows here, the
// halo folds in nn/layer.cpp): destination rows repeat, so those kernels
// split the feature axis instead — each lane walks the full entry list but
// owns a disjoint column range, keeping the per-element entry order intact.
constexpr std::int64_t kBlockCols = 64;

} // namespace

namespace detail {

void scale_by_beta(float* first, float* last, float beta) {
  if (beta == 0.0f) {
    std::fill(first, last, 0.0f);
  } else if (beta != 1.0f) {
    for (float* p = first; p != last; ++p) *p *= beta;
  }
}

void gemm_nn_rows_scalar(const Matrix& a, const Matrix& b, Matrix& c,
                         std::int64_t r0, std::int64_t r1, float alpha,
                         float beta) {
  const std::int64_t k = a.cols(), n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // The k-accumulation order per row is fixed by the k0/kk loops alone, so
  // any [r0, r1) slicing produces bit-identical rows to the full call — and
  // the same argument makes the kBlockM row blocks thread-safe lanes: each
  // owns disjoint rows of C and computes them in the serial kernel's order.
  // Blocks stay anchored at r0, matching the serial i0 tiling exactly.
  common::for_blocks(r1 - r0, kBlockM, [&](std::int64_t b0, std::int64_t b1) {
    const std::int64_t i0 = r0 + b0;
    const std::int64_t i1 = r0 + b1;
    scale_by_beta(pc + i0 * n, pc + i1 * n, beta);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::int64_t k1 = std::min(k0 + kBlockK, k);
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = pc + i * n;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          const float av = alpha * pa[i * k + kk];
          if (av == 0.0f) continue;
          const float* brow = pb + kk * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  });
}

void gemm_tn_scalar(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                    float beta) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // C[kk,j] += A[i,kk] * B[i,j]: stream rows of A and B together. Lanes
  // split the kk axis (disjoint rows of C); the i loop stays outermost
  // inside each lane, so every C element still accumulates in ascending-i
  // order with the same av==0 skips — bit-identical for any lane count.
  // (The skip must be preserved, not just cheap: adding a 0.0f term is not
  // bitwise-neutral when the accumulator holds -0.0f.)
  common::for_blocks(k, kBlockM, [&](std::int64_t kk0, std::int64_t kk1) {
    scale_by_beta(pc + kk0 * n, pc + kk1 * n, beta);
    for (std::int64_t i = 0; i < m; ++i) {
      const float* arow = pa + i * k;
      const float* brow = pb + i * n;
      for (std::int64_t kk = kk0; kk < kk1; ++kk) {
        const float av = alpha * arow[kk];
        if (av == 0.0f) continue;
        float* crow = pc + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

void gemm_nt_scalar(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                    float beta) {
  const std::int64_t m = a.rows(), n = a.cols(), k = b.rows();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // C[i,j] = dot(A.row(i), B.row(j)) — both walks are contiguous, and each
  // output row is an independent set of local dot products, so the row
  // split is trivially bit-stable.
  common::for_blocks(m, kBlockM, [&](std::int64_t i0, std::int64_t i1) {
    scale_by_beta(pc + i0 * k, pc + i1 * k, beta);
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + i * n;
      float* crow = pc + i * k;
      for (std::int64_t j = 0; j < k; ++j) {
        const float* brow = pb + j * n;
        float acc = 0.0f;
        for (std::int64_t t = 0; t < n; ++t) acc += arow[t] * brow[t];
        crow[j] += alpha * acc;
      }
    }
  });
}

} // namespace detail

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  BNSGCN_CHECK(c.rows() == a.rows());
  gemm_nn_rows(a, b, c, 0, a.rows(), alpha, beta);
}

void gemm_nn_rows(const Matrix& a, const Matrix& b, Matrix& c,
                  std::int64_t r0, std::int64_t r1, float alpha, float beta) {
  BNSGCN_CHECK(b.rows() == a.cols());
  BNSGCN_CHECK(c.cols() == b.cols());
  BNSGCN_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.rows() && r1 <= c.rows());
  if (simd::host_has_avx512f()) {
    detail::gemm_nn_rows_avx512(a, b, c, r0, r1, alpha, beta);
  } else {
    detail::gemm_nn_rows_scalar(a, b, c, r0, r1, alpha, beta);
  }
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  BNSGCN_CHECK(b.rows() == a.rows());
  BNSGCN_CHECK(c.rows() == a.cols() && c.cols() == b.cols());
  if (simd::host_has_avx512f()) {
    detail::gemm_tn_avx512(a, b, c, alpha, beta);
  } else {
    detail::gemm_tn_scalar(a, b, c, alpha, beta);
  }
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  BNSGCN_CHECK(b.cols() == a.cols());
  BNSGCN_CHECK(c.rows() == a.rows() && c.cols() == b.rows());
  if (simd::host_has_avx512f()) {
    detail::gemm_nt_avx512(a, b, c, alpha, beta);
  } else {
    detail::gemm_nt_scalar(a, b, c, alpha, beta);
  }
}

void axpy(float a, const Matrix& x, Matrix& y) {
  BNSGCN_CHECK(y.size() == x.size());
  float* py = y.data();
  const float* px = x.data();
  const std::int64_t n = y.size();
  // lint: allow(float-accum) — element-wise y[i] += a*x[i]; order-independent.
  for (std::int64_t i = 0; i < n; ++i) py[i] += a * px[i];
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
  mask.resize(x.rows(), x.cols());
  if (p == 0.0f) {
    mask.fill(1.0f);
    return;
  }
  const float keep_scale = 1.0f / (1.0f - p);
  float* px = x.data();
  float* pm = mask.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) {
    if (rng.next_float() < p) {
      px[i] = 0.0f;
      pm[i] = 0.0f;
    } else {
      px[i] *= keep_scale;
      pm[i] = keep_scale;
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

void scatter_add_rows(const Matrix& src, std::span<const NodeId> idx,
                      Matrix& dst) {
  BNSGCN_CHECK(src.rows() == static_cast<std::int64_t>(idx.size()));
  BNSGCN_CHECK(src.cols() == dst.cols());
  const std::int64_t d = src.cols();
  if constexpr (kCheckedBuild) {
    for (std::size_t i = 0; i < idx.size(); ++i)
      BNSGCN_BOUNDS(idx[i], dst.rows());
  }
  // idx may repeat destination rows, so lanes split the feature axis: each
  // walks the whole index list (entry order — and with it each element's
  // accumulation order — unchanged) but owns a disjoint column range.
  common::for_blocks(d, kBlockCols, [&](std::int64_t c0, std::int64_t c1) {
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const float* s = src.data() + static_cast<std::int64_t>(i) * d;
      float* t = dst.data() + static_cast<std::int64_t>(idx[i]) * d;
      for (std::int64_t c = c0; c < c1; ++c) t[c] += s[c];
    }
  });
}

void concat_cols(const Matrix& a, const Matrix& b, Matrix& out) {
  BNSGCN_CHECK(a.rows() == b.rows());
  out.resize(a.rows(), a.cols() + b.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    float* o = out.data() + r * out.cols();
    const float* pa = a.data() + r * a.cols();
    const float* pb = b.data() + r * b.cols();
    std::copy(pa, pa + a.cols(), o);
    std::copy(pb, pb + b.cols(), o + a.cols());
  }
}

void split_cols(const Matrix& out, Matrix& a, Matrix& b, std::int64_t a_cols) {
  BNSGCN_CHECK(a_cols >= 0 && a_cols <= out.cols());
  const std::int64_t b_cols = out.cols() - a_cols;
  a.resize(out.rows(), a_cols);
  b.resize(out.rows(), b_cols);
  for (std::int64_t r = 0; r < out.rows(); ++r) {
    const float* o = out.data() + r * out.cols();
    std::copy(o, o + a_cols, a.data() + r * a_cols);
    std::copy(o + a_cols, o + out.cols(), b.data() + r * b_cols);
  }
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

// AVX-512F GEMM kernels, picked at run time by tensor/ops.cpp. Only the
// functions marked [[gnu::target("avx512f")]] use AVX-512, so the library
// still targets baseline x86-64. Every output element runs the scalar
// kernel's exact sequence of single-precision operations — same operands,
// same order, same skips — sixteen elements at a time, so both kernels give
// the same bits (docs/ARCHITECTURE.md §6, "ISA dispatch"). Two rules keep
// it that way:
//
//   * No fused multiply-add. Every product goes through simd::mul()
//     (tensor/simd.hpp), which the compiler does not contract, so no build
//     flag is needed. GemmDispatch.DispatchedGemmsDoNotFuse
//     (tests/test_ops.cpp) and the objdump gate in ci/verify.sh pin it.
//   * Tiles move where an element is computed, never the order of its
//     terms. Register tiles are kTileRows x kTileCols (16 zmm accumulators;
//     a row tail runs 1-row tiles), column tails go through load/store
//     masks so no access runs past a row's end, and the lanes are the
//     scalar kernels' common::for_blocks blocks.
//
// The tiles' row loops carry `#pragma GCC unroll`: unrolled that early, the
// accumulator arrays are split into registers; otherwise GCC keeps a stack
// copy and stores all 16 accumulators on every k step.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/simd.hpp"

namespace bnsgcn::ops::detail {
namespace {

constexpr std::int64_t kTileRows = 4;
constexpr int kVecs = 4; // zmm registers per tile row
constexpr std::int64_t kTileCols = 16 * kVecs;

// gemm_tn's i block: kTnRows rows of one B column tile (32 KiB) stay in L1
// while every kk tile of the lane sweeps them.
constexpr std::int64_t kTnRows = 128;

using ColMasks = simd::ColMasks<kVecs>;
using simd::mul;

/// One register tile of gemm_nn / gemm_tn: for each of its R rows,
///   c[r, :] = c[r, :] + av * b[s, :]   with av = alpha * a[r*a_row + s*a_step]
/// for s ascending over [0, steps), skipping every term whose av compares
/// equal to zero — as the scalar kernels do, because adding a zero term is
/// not bitwise-neutral on a -0.0f accumulator. The skip is an add under an
/// empty mask; a NaN av is not skipped, matching `==`.
template <int R>
[[gnu::target("avx512f")]] void axpy_tile(const float* a, std::int64_t a_row,
                                          std::int64_t a_step, const float* b,
                                          std::int64_t ldb, float* c,
                                          std::int64_t ldc, std::int64_t steps,
                                          float alpha, const ColMasks& cols) {
  __m512 acc[R][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
    for (int q = 0; q < kVecs; ++q)
      acc[r][q] = _mm512_maskz_loadu_ps(cols.m[q], c + r * ldc + 16 * q);
  for (std::int64_t s = 0; s < steps; ++s) {
    __m512 bv[kVecs];
    for (int q = 0; q < kVecs; ++q)
      bv[q] = _mm512_maskz_loadu_ps(cols.m[q], b + s * ldb + 16 * q);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av = alpha * a[r * a_row + s * a_step];
      const __mmask16 live = av == 0.0f ? 0 : 0xFFFF;
      const __m512 avv = _mm512_set1_ps(av);
      for (int q = 0; q < kVecs; ++q)
        acc[r][q] = _mm512_mask_add_ps(acc[r][q], live, acc[r][q],
                                       mul(avv, bv[q]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
    for (int q = 0; q < kVecs; ++q)
      _mm512_mask_storeu_ps(c + r * ldc + 16 * q, cols.m[q], acc[r][q]);
}

/// One register tile of gemm_nt, with B already transposed (bt[t, j] =
/// B[j, t]): for each of its R rows,
///   acc = 0.0f;  acc = acc + a[r*lda + t] * bt[t, :]  for t ascending;
///   c[r, :] = c[r, :] + alpha * acc
/// — the scalar kernel's dot product, term for term, with no skips.
template <int R>
[[gnu::target("avx512f")]] void dot_tile(const float* a, std::int64_t lda,
                                         const float* bt, std::int64_t ldbt,
                                         float* c, std::int64_t ldc,
                                         std::int64_t steps, float alpha,
                                         const ColMasks& cols) {
  __m512 acc[R][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
    for (int q = 0; q < kVecs; ++q) acc[r][q] = _mm512_setzero_ps();
  for (std::int64_t t = 0; t < steps; ++t) {
    __m512 bv[kVecs];
    for (int q = 0; q < kVecs; ++q)
      bv[q] = _mm512_maskz_loadu_ps(cols.m[q], bt + t * ldbt + 16 * q);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + t]);
      for (int q = 0; q < kVecs; ++q)
        acc[r][q] = _mm512_add_ps(acc[r][q], mul(av, bv[q]));
    }
  }
  const __m512 alphav = _mm512_set1_ps(alpha);
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < kVecs; ++q) {
      float* cq = c + r * ldc + 16 * q;
      const __m512 cv = _mm512_maskz_loadu_ps(cols.m[q], cq);
      _mm512_mask_storeu_ps(cq, cols.m[q],
                            _mm512_add_ps(cv, mul(alphav, acc[r][q])));
    }
  }
}

} // namespace

void gemm_nn_rows_avx512(const Matrix& a, const Matrix& b, Matrix& c,
                         std::int64_t r0, std::int64_t r1, float alpha,
                         float beta) {
  const std::int64_t k = a.cols(), n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // A C tile stays in registers across the whole k loop: each element
  // still takes its terms in ascending k, as over the scalar k0 blocks.
  common::for_blocks(r1 - r0, kBlockM, [&](std::int64_t b0, std::int64_t b1) {
    const std::int64_t i0 = r0 + b0;
    const std::int64_t i1 = r0 + b1;
    scale_by_beta(pc + i0 * n, pc + i1 * n, beta);
    for (std::int64_t j0 = 0; j0 < n; j0 += kTileCols) {
      const ColMasks cols(n - j0);
      std::int64_t i = i0;
      for (; i + kTileRows <= i1; i += kTileRows)
        axpy_tile<kTileRows>(pa + i * k, k, 1, pb + j0, n, pc + i * n + j0, n,
                             k, alpha, cols);
      for (; i < i1; ++i)
        axpy_tile<1>(pa + i * k, k, 1, pb + j0, n, pc + i * n + j0, n, k,
                     alpha, cols);
    }
  });
}

void gemm_tn_avx512(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                    float beta) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Lanes split kk (rows of C), as in the scalar kernel. Inside a lane the
  // i axis runs in kTnRows blocks, ascending, and each C tile is loaded
  // and stored once per block — so every element still adds its terms in
  // ascending i.
  common::for_blocks(k, kBlockM, [&](std::int64_t kk0, std::int64_t kk1) {
    scale_by_beta(pc + kk0 * n, pc + kk1 * n, beta);
    for (std::int64_t ib = 0; ib < m; ib += kTnRows) {
      const std::int64_t rows = std::min(kTnRows, m - ib);
      const float* pai = pa + ib * k;
      const float* pbi = pb + ib * n;
      for (std::int64_t j0 = 0; j0 < n; j0 += kTileCols) {
        const ColMasks cols(n - j0);
        std::int64_t kk = kk0;
        for (; kk + kTileRows <= kk1; kk += kTileRows)
          axpy_tile<kTileRows>(pai + kk, 1, k, pbi + j0, n, pc + kk * n + j0,
                               n, rows, alpha, cols);
        for (; kk < kk1; ++kk)
          axpy_tile<1>(pai + kk, 1, k, pbi + j0, n, pc + kk * n + j0, n, rows,
                       alpha, cols);
      }
    }
  });
}

void gemm_nt_avx512(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                    float beta) {
  const std::int64_t m = a.rows(), n = a.cols(), k = b.rows();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // B transposed once per call, so a C tile reads its t-th terms from one
  // contiguous row: bt[t, j] = B[j, t].
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  for (std::int64_t j = 0; j < k; ++j)
    for (std::int64_t t = 0; t < n; ++t)
      bt[static_cast<std::size_t>(t * k + j)] = pb[j * n + t];
  common::for_blocks(m, kBlockM, [&](std::int64_t i0, std::int64_t i1) {
    scale_by_beta(pc + i0 * k, pc + i1 * k, beta);
    for (std::int64_t j0 = 0; j0 < k; j0 += kTileCols) {
      const ColMasks cols(k - j0);
      std::int64_t i = i0;
      for (; i + kTileRows <= i1; i += kTileRows)
        dot_tile<kTileRows>(pa + i * n, n, bt.data() + j0, k, pc + i * k + j0,
                            k, n, alpha, cols);
      for (; i < i1; ++i)
        dot_tile<1>(pa + i * n, n, bt.data() + j0, k, pc + i * k + j0, k, n,
                    alpha, cols);
    }
  });
}

} // namespace bnsgcn::ops::detail

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
//     a row tail runs 1-row tiles), full column tiles load and store
//     without masks while the column tail goes through load/store masks so
//     no access runs past a row's end, and the lanes are the scalar
//     kernels' common::for_blocks blocks.
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

/// Vector q of a tile row: a plain load or store for a full 64-column
/// tile, a masked one for the column tail (masked-off lanes are neither
/// read nor written, so no access runs past a row's end).
template <bool kTail>
[[gnu::target("avx512f")]] inline __m512 load(const float* p, int q,
                                              const ColMasks& cols) {
  if constexpr (kTail) {
    return _mm512_maskz_loadu_ps(cols.m[q], p + 16 * q);
  } else {
    return _mm512_loadu_ps(p + 16 * q);
  }
}

template <bool kTail>
[[gnu::target("avx512f")]] inline void store(float* p, int q, __m512 v,
                                             const ColMasks& cols) {
  if constexpr (kTail) {
    _mm512_mask_storeu_ps(p + 16 * q, cols.m[q], v);
  } else {
    _mm512_storeu_ps(p + 16 * q, v);
  }
}

/// One register tile of gemm_nn / gemm_tn: for each of its R rows,
///   c[r][:] = c[r][:] + av * b[s, :]   with av = a[r*a_row + s*a_step]
/// for s ascending over [0, steps), skipping every term whose av compares
/// equal to zero — as the scalar kernels do, because adding a zero term is
/// not bitwise-neutral on a -0.0f accumulator. av is broadcast straight
/// from memory, and the skip is an add under the mask of one vector
/// compare, av != 0 unordered: ±0 is skipped and a NaN stays live, which
/// is the scalar `av == 0.0f` test. With load_c false the tile starts from
/// +0.0f and never reads C: the scalar kernels' beta = 0 fill writes that
/// +0.0f and then adds the same terms to it.
template <int R, bool kTail>
[[gnu::target("avx512f")]] void axpy_tile(const float* a, std::int64_t a_row,
                                          std::int64_t a_step, const float* b,
                                          std::int64_t ldb,
                                          float* const* c, std::int64_t steps,
                                          bool load_c, const ColMasks& cols) {
  __m512 acc[R][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
    for (int q = 0; q < kVecs; ++q)
      acc[r][q] = load_c ? load<kTail>(c[r], q, cols) : _mm512_setzero_ps();
  const __m512 zero = _mm512_setzero_ps();
  for (std::int64_t s = 0; s < steps; ++s) {
    __m512 bv[kVecs];
    for (int q = 0; q < kVecs; ++q) bv[q] = load<kTail>(b + s * ldb, q, cols);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * a_row + s * a_step]);
      const __mmask16 live = _mm512_cmp_ps_mask(av, zero, _CMP_NEQ_UQ);
      for (int q = 0; q < kVecs; ++q)
        acc[r][q] =
            _mm512_mask_add_ps(acc[r][q], live, acc[r][q], mul(av, bv[q]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
    for (int q = 0; q < kVecs; ++q) store<kTail>(c[r], q, acc[r][q], cols);
}

/// The axpy tiles of one column tile over tile rows [i0, i1): 4-row tiles,
/// then 1-row tiles for the tail. Tile row i reads A at a + i * a_row and
/// writes the C row at c + map(i) * ldc + j0, where map(i) is row_map[i],
/// or i without a map.
template <bool kTail>
[[gnu::target("avx512f")]] void axpy_rows(const float* a, std::int64_t a_row,
                                          std::int64_t a_step, const float* b,
                                          std::int64_t ldb, float* c,
                                          std::int64_t ldc,
                                          const NodeId* row_map,
                                          std::int64_t i0, std::int64_t i1,
                                          std::int64_t steps, bool load_c,
                                          const ColMasks& cols) {
  const auto c_row = [&](std::int64_t i) {
    return c + (row_map != nullptr ? row_map[i] : i) * ldc;
  };
  std::int64_t i = i0;
  // lint: allow(float-accum) — the += steps an integer tile cursor.
  for (; i + kTileRows <= i1; i += kTileRows) {
    float* const rows[kTileRows] = {c_row(i), c_row(i + 1), c_row(i + 2),
                                    c_row(i + 3)};
    axpy_tile<kTileRows, kTail>(a + i * a_row, a_row, a_step, b, ldb, rows,
                                steps, load_c, cols);
  }
  for (; i < i1; ++i) {
    float* const rows[1] = {c_row(i)};
    axpy_tile<1, kTail>(a + i * a_row, a_row, a_step, b, ldb, rows, steps,
                        load_c, cols);
  }
}

/// One register tile of gemm_nt, with B already transposed (bt[t, j] =
/// B[j, t]): for each of its R rows,
///   acc = 0.0f;  acc = acc + a[r*lda + t] * bt[t, :]  for t ascending;
///   c[r][:] = c[r][:] + acc
/// — the scalar kernel's dot product, term for term, with no skips. With
/// load_c false the finish adds acc to +0.0f instead of reading C.
template <int R, bool kTail>
[[gnu::target("avx512f")]] void dot_tile(const float* a, std::int64_t lda,
                                         const float* bt, std::int64_t ldbt,
                                         float* const* c, std::int64_t steps,
                                         bool load_c, const ColMasks& cols) {
  __m512 acc[R][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
    for (int q = 0; q < kVecs; ++q) acc[r][q] = _mm512_setzero_ps();
  for (std::int64_t t = 0; t < steps; ++t) {
    __m512 bv[kVecs];
    for (int q = 0; q < kVecs; ++q)
      bv[q] = load<kTail>(bt + t * ldbt, q, cols);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + t]);
      for (int q = 0; q < kVecs; ++q)
        acc[r][q] = _mm512_add_ps(acc[r][q], mul(av, bv[q]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < kVecs; ++q) {
      const __m512 cv =
          load_c ? load<kTail>(c[r], q, cols) : _mm512_setzero_ps();
      store<kTail>(c[r], q, _mm512_add_ps(cv, acc[r][q]), cols);
    }
  }
}

/// The dot tiles of one column tile over rows [i0, i1) of A and C.
template <bool kTail>
[[gnu::target("avx512f")]] void dot_rows(const float* a, std::int64_t lda,
                                         const float* bt, std::int64_t ldbt,
                                         float* c, std::int64_t ldc,
                                         std::int64_t i0, std::int64_t i1,
                                         std::int64_t steps, bool load_c,
                                         const ColMasks& cols) {
  std::int64_t i = i0;
  // lint: allow(float-accum) — the += steps an integer tile cursor.
  for (; i + kTileRows <= i1; i += kTileRows) {
    float* const rows[kTileRows] = {c + i * ldc, c + (i + 1) * ldc,
                                    c + (i + 2) * ldc, c + (i + 3) * ldc};
    dot_tile<kTileRows, kTail>(a + i * lda, lda, bt, ldbt, rows, steps,
                               load_c, cols);
  }
  for (; i < i1; ++i) {
    float* const rows[1] = {c + i * ldc};
    dot_tile<1, kTail>(a + i * lda, lda, bt, ldbt, rows, steps, load_c, cols);
  }
}

} // namespace

void gemm_nn_rows_avx512(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                         std::int64_t r0, std::int64_t r1, float beta,
                         std::span<const NodeId> row_map) {
  const std::int64_t k = a.cols(), n = b.cols();
  const NodeId* map = row_map.empty() ? nullptr : row_map.data();
  const bool load_c = beta != 0.0f;
  // A C tile stays in registers across the whole k loop: each element
  // still takes its terms in ascending k, as over the scalar k0 blocks.
  common::for_blocks(r1 - r0, kBlockM, [&](std::int64_t b0, std::int64_t b1) {
    const std::int64_t i0 = r0 + b0;
    const std::int64_t i1 = r0 + b1;
    if (load_c) {
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = c.row(map != nullptr ? map[i] : i);
        scale_by_beta(crow, crow + n, beta);
      }
    }
    for (std::int64_t j0 = 0; j0 < n; j0 += kTileCols) {
      const ColMasks cols(n - j0);
      if (n - j0 >= kTileCols) {
        axpy_rows<false>(a.data(), a.stride(), 1, b.data() + j0, b.stride(),
                         c.data() + j0, c.stride(), map, i0, i1, k, load_c,
                         cols);
      } else {
        axpy_rows<true>(a.data(), a.stride(), 1, b.data() + j0, b.stride(),
                        c.data() + j0, c.stride(), map, i0, i1, k, load_c,
                        cols);
      }
    }
  });
}

void gemm_tn_avx512(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    float beta) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  // Lanes split kk (rows of C), as in the scalar kernel. Inside a lane the
  // i axis runs in kTnRows blocks, ascending, and each C tile is loaded
  // and stored once per block — so every element still adds its terms in
  // ascending i. With beta = 0 the first block starts from +0.0f.
  common::for_blocks(k, kBlockM, [&](std::int64_t kk0, std::int64_t kk1) {
    if (beta != 0.0f) {
      for (std::int64_t kk = kk0; kk < kk1; ++kk)
        scale_by_beta(c.row(kk), c.row(kk) + n, beta);
    }
    for (std::int64_t ib = 0; ib < m; ib += kTnRows) {
      const std::int64_t rows = std::min(kTnRows, m - ib);
      const bool load_c = ib > 0 || beta != 0.0f;
      const float* pai = a.row(ib);
      const float* pbi = b.row(ib);
      for (std::int64_t j0 = 0; j0 < n; j0 += kTileCols) {
        const ColMasks cols(n - j0);
        if (n - j0 >= kTileCols) {
          axpy_rows<false>(pai, 1, a.stride(), pbi + j0, b.stride(),
                           c.data() + j0, c.stride(), nullptr, kk0, kk1, rows,
                           load_c, cols);
        } else {
          axpy_rows<true>(pai, 1, a.stride(), pbi + j0, b.stride(),
                          c.data() + j0, c.stride(), nullptr, kk0, kk1, rows,
                          load_c, cols);
        }
      }
    }
  });
}

void gemm_nt_avx512(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    float beta) {
  const std::int64_t m = a.rows(), n = a.cols(), k = b.rows();
  const bool load_c = beta != 0.0f;
  // B transposed once per call, so a C tile reads its t-th terms from one
  // contiguous row: bt[t, j] = B[j, t].
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  for (std::int64_t j = 0; j < k; ++j)
    for (std::int64_t t = 0; t < n; ++t)
      bt[static_cast<std::size_t>(t * k + j)] = b.row(j)[t];
  common::for_blocks(m, kBlockM, [&](std::int64_t i0, std::int64_t i1) {
    if (load_c) {
      for (std::int64_t i = i0; i < i1; ++i)
        scale_by_beta(c.row(i), c.row(i) + k, beta);
    }
    for (std::int64_t j0 = 0; j0 < k; j0 += kTileCols) {
      const ColMasks cols(k - j0);
      if (k - j0 >= kTileCols) {
        dot_rows<false>(a.data(), a.stride(), bt.data() + j0, k,
                        c.data() + j0, c.stride(), i0, i1, n, load_c, cols);
      } else {
        dot_rows<true>(a.data(), a.stride(), bt.data() + j0, k,
                       c.data() + j0, c.stride(), i0, i1, n, load_c, cols);
      }
    }
  });
}

} // namespace bnsgcn::ops::detail

#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "tensor/matrix.hpp"

namespace bnsgcn::ops {

// ---------------------------------------------------------------------------
// GEMM family. Every variant accumulates into a pre-shaped output:
//   C = op(A) * op(B) + beta * C
// beta == 0 overwrites C without reading it (NaNs in it included); beta ==
// 1 adds onto it. Operands and outputs are views (tensor/matrix.hpp), so
// a row range of a larger matrix or a received slab goes in as it is, and
// a Matrix converts to one. Only the three shapes the layers need are
// provided. Each has two kernels behind it (tensor/gemm_kernels.hpp): an
// AVX-512F one held in 4-row x 64-column register tiles, picked once per
// process when the host supports it, and the scalar one, a blocked loop.
// Both keep every output element's operation sequence — multiply, then a
// separate add, over ascending k, with the same zero skips (gemm_nn and
// gemm_tn skip the terms whose A entry is ±0) — so results are
// bit-identical on any host (docs/ARCHITECTURE.md §6, "ISA dispatch").
// ---------------------------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n] + beta * C
void gemm_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             float beta = 0.0f);

/// Row-range gemm_nn: C[map(r),:] = A[r,:] * B + beta * C[map(r),:] for
/// rows r in [r0, r1) only, where map(r) is row_map[r] when a map is given
/// (it then has one entry per row of A, each a row of C) and r otherwise.
/// Every other row of C is untouched, so chunked callers and scattered
/// destinations need no staging copies. Map entries are range-checked;
/// they must be distinct. Per-row results are bit-identical to gemm_nn
/// over the full shape: the k-accumulation order is independent of the
/// row blocking and of where a row lands.
void gemm_nn_rows(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                  std::int64_t r0, std::int64_t r1, float beta = 0.0f,
                  std::span<const NodeId> row_map = {});

/// C[k,n] = A[m,k]^T * B[m,n] + beta * C   (weight gradients)
void gemm_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             float beta = 0.0f);

/// C[m,k] = A[m,n] * B[k,n]^T + beta * C   (input gradients)
void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             float beta = 0.0f);

// ---------------------------------------------------------------------------
// Elementwise / rowwise.
// ---------------------------------------------------------------------------

/// x[r,:] += bias[0,:] for rows r in [r0, r1) only (chunked-stream
/// companion of gemm_nn_rows).
void add_row_bias_rows(Matrix& x, const Matrix& bias, std::int64_t r0,
                       std::int64_t r1);

/// bias_grad[0,:] += column sums of grad.
void col_sum(const Matrix& grad, Matrix& out);

/// ReLU forward in place: x stays where x > 0 and becomes +0.0f elsewhere
/// (-0.0f and NaN included); mask receives 1 where x > 0, else 0, for
/// backward.
void relu_forward(Matrix& x, Matrix& mask);

/// Maskless ReLU for forward-only (inference) passes: byte-identical
/// outputs, NaN included, with no backward mask allocated.
void relu_forward(Matrix& x);

/// grad *= mask (backward through ReLU).
void relu_backward(Matrix& grad, const Matrix& mask);

/// Inverted dropout: zero with prob p, scale kept values by 1/(1-p).
/// mask holds the applied multiplier so backward is grad *= mask. Draws
/// one rng value per element, in element order; element i drops when that
/// draw's next_float() would be < p.
void dropout_forward(Matrix& x, Matrix& mask, float p, Rng& rng);
void dropout_backward(Matrix& grad, const Matrix& mask);

// ---------------------------------------------------------------------------
// Row gather (the minibatch baselines' input and label blocks).
// ---------------------------------------------------------------------------

/// out[i,:] = src[idx[i],:]. out is resized to (idx.size(), src.cols()).
void gather_rows(const Matrix& src, std::span<const NodeId> idx, Matrix& out);

// ---------------------------------------------------------------------------
// Init / comparison helpers.
// ---------------------------------------------------------------------------

/// Glorot/Xavier uniform-equivalent Gaussian init for a [fan_in, fan_out]
/// weight: stddev = sqrt(2 / (fan_in + fan_out)).
void glorot_init(Matrix& w, Rng& rng);

/// Max |a-b| over all elements; shapes must match. A pair with NaN on one
/// side only counts as +inf; NaN on both sides counts as equal.
[[nodiscard]] float max_abs_diff(const Matrix& a, const Matrix& b);

} // namespace bnsgcn::ops

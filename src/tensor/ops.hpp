#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "tensor/matrix.hpp"

namespace bnsgcn::ops {

// ---------------------------------------------------------------------------
// GEMM family. All variants accumulate into a pre-shaped output:
//   C = alpha * op(A) * op(B) + beta * C
// Only the three shapes needed by the layers are provided. Each has two
// kernels behind it (tensor/gemm_kernels.hpp): an AVX-512F one held in
// 4-row x 64-column register tiles, picked once per process when the host
// supports it, and the scalar one, a blocked loop for row-major operands.
// Both keep every output element's operation sequence — multiply, then a
// separate add, over ascending k, with the same zero skips — so results
// are bit-identical on any host (docs/ARCHITECTURE.md §6, "ISA dispatch").
// ---------------------------------------------------------------------------

/// C[m,n] = alpha * A[m,k] * B[k,n] + beta * C
void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha = 1.0f,
             float beta = 0.0f);

/// Row-range gemm_nn: C[r,:] = alpha * A[r,:] * B + beta * C[r,:] for rows
/// r in [r0, r1) only; every other row of C is untouched. A and C may have
/// more rows than r1 (the chunked-stream forward runs over the inner-row
/// prefix of a [dst; halo]-shaped pair) — only the addressed range is read
/// or written, so chunked callers need no staging copies. Per-row results
/// are bit-identical to gemm_nn over the full shape: the k-accumulation
/// order is independent of the row blocking.
void gemm_nn_rows(const Matrix& a, const Matrix& b, Matrix& c,
                  std::int64_t r0, std::int64_t r1, float alpha = 1.0f,
                  float beta = 0.0f);

/// C[k,n] = alpha * A[m,k]^T * B[m,n] + beta * C   (weight gradients)
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha = 1.0f,
             float beta = 0.0f);

/// C[m,k] = alpha * A[m,n] * B[k,n]^T + beta * C   (input gradients)
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha = 1.0f,
             float beta = 0.0f);

// ---------------------------------------------------------------------------
// Elementwise / rowwise.
// ---------------------------------------------------------------------------

/// y = a*x + y (axpy over the flat buffer).
void axpy(float a, const Matrix& x, Matrix& y);

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
/// mask holds the applied multiplier so backward is grad *= mask.
void dropout_forward(Matrix& x, Matrix& mask, float p, Rng& rng);
void dropout_backward(Matrix& grad, const Matrix& mask);

// ---------------------------------------------------------------------------
// Gather / scatter over row indices — the halo exchange primitives.
// ---------------------------------------------------------------------------

/// out[i,:] = src[idx[i],:]. out is resized to (idx.size(), src.cols()).
void gather_rows(const Matrix& src, std::span<const NodeId> idx, Matrix& out);

/// dst[idx[i],:] += src[i,:]
void scatter_add_rows(const Matrix& src, std::span<const NodeId> idx,
                      Matrix& dst);

/// Concatenate columns: out = [a | b].
void concat_cols(const Matrix& a, const Matrix& b, Matrix& out);

/// Split columns (backward of concat): a = out[:, :a_cols], b = rest.
void split_cols(const Matrix& out, Matrix& a, Matrix& b, std::int64_t a_cols);

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

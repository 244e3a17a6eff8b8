#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "tensor/matrix.hpp"

// Private to tensor/ops.cpp and the kernel tests: the two implementations
// behind ops::gemm_nn_rows, ops::gemm_tn and ops::gemm_nt. The public
// functions check shapes, then run the AVX-512F kernel when the host has
// it and the scalar kernel otherwise. Both compute every output element
// with the same sequence of single-precision operations, so they agree
// bit for bit (docs/ARCHITECTURE.md §6, "ISA dispatch"). Shapes are the
// caller's to check.
namespace bnsgcn::ops::detail {

/// Row grain of the row-split GEMMs (and of gemm_tn's kk split): the
/// common::for_blocks block size every implementation shares, so the
/// thread-lane decomposition does not depend on the ISA.
constexpr std::int64_t kBlockM = 64;

// Both kernel sets take the public functions' arguments: views of A, B and
// C, beta, and for gemm_nn_rows the row range and the (possibly empty)
// output row map.
void gemm_nn_rows_scalar(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                         std::int64_t r0, std::int64_t r1, float beta,
                         std::span<const NodeId> row_map);
void gemm_tn_scalar(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    float beta);
void gemm_nt_scalar(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    float beta);

void gemm_nn_rows_avx512(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                         std::int64_t r0, std::int64_t r1, float beta,
                         std::span<const NodeId> row_map);
void gemm_tn_avx512(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    float beta);
void gemm_nt_avx512(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    float beta);

/// The beta pass over one row of C: zero-fill when beta == 0, one multiply
/// per element unless beta == 1. The scalar kernels run it on every row
/// they write before accumulating; the AVX-512F kernels run it only when
/// beta is neither 0 (their tiles then start from +0.0f in registers,
/// which is what the fill writes) nor 1.
void scale_by_beta(float* first, float* last, float beta);

} // namespace bnsgcn::ops::detail

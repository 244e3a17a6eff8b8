#pragma once

#include <cstdint>

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

void gemm_nn_rows_scalar(const Matrix& a, const Matrix& b, Matrix& c,
                         std::int64_t r0, std::int64_t r1, float alpha,
                         float beta);
void gemm_tn_scalar(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                    float beta);
void gemm_nt_scalar(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                    float beta);

void gemm_nn_rows_avx512(const Matrix& a, const Matrix& b, Matrix& c,
                         std::int64_t r0, std::int64_t r1, float alpha,
                         float beta);
void gemm_tn_avx512(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                    float beta);
void gemm_nt_avx512(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                    float beta);

/// The beta pass every kernel runs on its block of C before accumulating:
/// zero-fill when beta == 0, one multiply per element unless beta == 1.
void scale_by_beta(float* first, float* last, float beta);

} // namespace bnsgcn::ops::detail

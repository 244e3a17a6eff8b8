#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "nn/layer.hpp"
#include "tensor/matrix.hpp"

// Private to nn/layer.cpp, nn/aggregate_avx512.cpp and the kernel tests:
// the two implementations behind mean_aggregate_inner_rows (F1),
// mean_aggregate_halo_fold (F2a), mean_aggregate_backward_halo (B1) and
// mean_aggregate_backward_inner (B2). The public functions check their
// arguments, then run the AVX-512F kernel when the host has it and the
// scalar kernel otherwise. Both compute every output element with the same
// sequence of single-precision operations, so they agree bit for bit
// (docs/ARCHITECTURE.md §6, "ISA dispatch").
namespace bnsgcn::nn::detail {

// Parallel grains, mirroring tensor/ops.cpp, shared by both kernel sets so
// the thread-lane decomposition does not depend on the ISA. Gather-shaped
// kernels (one writer per destination row) split the row axis; scatter-
// shaped kernels (source rows fan out to repeating destinations) split the
// feature axis so each lane owns disjoint columns while walking entries in
// the serial order. Either way each output element's accumulation order is
// the scalar kernel's — bit-identical for every thread count
// (common/thread_pool.hpp).
constexpr std::int64_t kRowBlock = 64;
constexpr std::int64_t kColBlock = 64;

void mean_aggregate_inner_rows_scalar(const BipartiteCsr& adj,
                                      const Matrix& inner_src, NodeId row0,
                                      NodeId row1, Matrix& out);
void mean_aggregate_halo_fold_scalar(const HaloIncidence& inc,
                                     std::span<const NodeId> slots,
                                     std::span<const float> rows,
                                     std::int64_t d, Matrix& out);
void mean_aggregate_backward_halo_scalar(const BipartiteCsr& adj,
                                         const Matrix& dout,
                                         std::span<const float> inv_deg,
                                         NodeId n_lo, Matrix& dhalo);
void mean_aggregate_backward_inner_scalar(const BipartiteCsr& adj,
                                          const Matrix& dout,
                                          std::span<const float> inv_deg,
                                          NodeId n_lo, Matrix& dinner);

void mean_aggregate_inner_rows_avx512(const BipartiteCsr& adj,
                                      const Matrix& inner_src, NodeId row0,
                                      NodeId row1, Matrix& out);
void mean_aggregate_halo_fold_avx512(const HaloIncidence& inc,
                                     std::span<const NodeId> slots,
                                     std::span<const float> rows,
                                     std::int64_t d, Matrix& out);
void mean_aggregate_backward_halo_avx512(const BipartiteCsr& adj,
                                         const Matrix& dout,
                                         std::span<const float> inv_deg,
                                         NodeId n_lo, Matrix& dhalo);
void mean_aggregate_backward_inner_avx512(const BipartiteCsr& adj,
                                          const Matrix& dout,
                                          std::span<const float> inv_deg,
                                          NodeId n_lo, Matrix& dinner);

} // namespace bnsgcn::nn::detail

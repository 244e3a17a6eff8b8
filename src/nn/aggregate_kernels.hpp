#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "nn/layer.hpp"
#include "tensor/matrix.hpp"

// Private to nn/layer.cpp, nn/gat_layer.cpp, nn/aggregate_avx512.cpp and
// the kernel tests: the two implementations behind
// mean_aggregate_inner_rows (F1), mean_aggregate_halo_fold (F2a),
// mean_aggregate_backward_halo (B1), mean_aggregate_backward_inner (B2)
// and GAT's attention scores and combine, gat_scores and gat_combine
// (F2c). The public functions check their arguments, then run the
// AVX-512F kernel when the host has it and the scalar kernel otherwise.
// Both compute every output element with the same sequence of
// single-precision operations, so they agree bit for bit
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

/// Where destination v's entries start in GAT's per-entry arrays (the
/// attention weights and LeakyReLU slopes): each row owns deg + 1 entries,
/// its arcs in adjacency order, then itself.
[[nodiscard]] inline std::size_t gat_entry_offset(const BipartiteCsr& adj,
                                                  NodeId v) {
  return static_cast<std::size_t>(adj.offsets[static_cast<std::size_t>(v)] +
                                  v);
}

/// GAT's attention combine, one head: for every destination v,
///   out[v, col0 + c] = out[v, col0 + c] + alpha[e] * wh[u, c]
/// over v's entries e in order (gat_entry_offset) for c in
/// [0, wh.cols()). Defined in nn/gat_layer.cpp.
void gat_combine_scalar(const BipartiteCsr& adj, std::span<const float> alpha,
                        const Matrix& wh, std::int64_t col0, Matrix& out);

/// GAT's attention scores and softmax, one head (gat_scores in
/// nn/gat_layer.hpp). Defined in nn/gat_layer.cpp.
void gat_scores_scalar(const BipartiteCsr& adj, std::span<const float> s_src,
                       std::span<const float> s_dst, float leaky_slope,
                       std::span<float> alpha, std::span<float> slopes);

/// The softmax's exp pass over one row's `cnt` entries, shared by both
/// gat_scores kernels: a[i] = exp(a[i] - mx) and their sum, both in entry
/// order. Scalar in both: std::exp is the host's libm.
inline float gat_exp_sum(float* a, std::size_t cnt, float mx) {
  float sum = 0.0f;
  for (std::size_t i = 0; i < cnt; ++i) {
    a[i] = std::exp(a[i] - mx);
    sum += a[i];
  }
  return sum;
}

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
void gat_combine_avx512(const BipartiteCsr& adj, std::span<const float> alpha,
                        const Matrix& wh, std::int64_t col0, Matrix& out);
void gat_scores_avx512(const BipartiteCsr& adj, std::span<const float> s_src,
                       std::span<const float> s_dst, float leaky_slope,
                       std::span<float> alpha, std::span<float> slopes);

} // namespace bnsgcn::nn::detail

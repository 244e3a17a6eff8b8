#include "nn/sage_layer.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace bnsgcn::nn {

SageLayer::SageLayer(std::int64_t d_in, std::int64_t d_out,
                     const Options& opts, Rng& rng)
    : Layer(d_in, d_out), opts_(opts), dropout_rng_(rng.next_u64()),
      w_neigh_(d_in, d_out), w_self_(d_in, d_out), b_(1, d_out),
      dw_neigh_(d_in, d_out), dw_self_(d_in, d_out), db_(1, d_out) {
  // ops::glorot_init of the whole (2·d_in) × d_out weight [W_neigh;
  // W_self]: its fan, and one draw sequence in row-major order over the
  // stacked blocks. A glorot_init per block would use the fan d_in + d_out.
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(2 * d_in + d_out));
  w_neigh_.randomize_gaussian(rng, stddev);
  w_self_.randomize_gaussian(rng, stddev);
}

void SageLayer::forward_inner_begin(const BipartiteCsr& adj,
                                    const Matrix& inner_feats, bool training) {
  phase_check_.on_forward_begin(adj.n_dst);
  BNSGCN_CHECK(inner_feats.cols() == d_in_);
  BNSGCN_CHECK(inner_feats.rows() == adj.n_dst);
  cached_training_ = training;
  // Setup only: the halo-independent work — inner-source partial
  // aggregation AND the self transform self·W_self — runs in the row
  // chunks, so RequestSet polls (and peer folds) can interleave. Inference
  // reads the caller's inner block in place; training copies it for
  // backward_params' dW_self GEMM.
  if (inference_) {
    inner_src_ = &inner_feats;
  } else {
    self_cache_ = inner_feats;
    inner_src_ = &self_cache_;
  }
  z_partial_.resize(adj.n_dst, d_in_); // resize zero-fills
  out_partial_.resize(adj.n_dst, d_out_);
}

void SageLayer::forward_inner_chunk(const BipartiteCsr& adj, NodeId row0,
                                    NodeId row1) {
  phase_check_.on_forward_chunk(row0, row1);
  mean_aggregate_inner_rows(adj, *inner_src_, row0, row1, z_partial_);
  // Row-range self transform, straight into the output rows: gemm_nn_rows
  // computes each row independently with the fixed k-loop order, so any
  // chunking is bit-identical to one whole-block GEMM — and no chunk
  // stages through heap copies.
  ops::gemm_nn_rows(*inner_src_, w_self_, out_partial_, row0, row1);
  ops::add_row_bias_rows(out_partial_, b_, row0, row1);
}

void SageLayer::forward_halo_begin(const BipartiteCsr& adj,
                                   const HaloIncidence& inc) {
  phase_check_.on_halo_begin();
  BNSGCN_CHECK(inc.n_lo == adj.n_dst && inc.n_halo == adj.n_src - adj.n_dst);
  halo_inc_ = &inc;
  // Folds accumulate here, not in z_partial_: a fold may land before the
  // F1 chunk that computes its destination rows, and the separate buffer
  // is what keeps the per-row order (inner terms, then the halo sum)
  // independent of that timing.
  z_halo_.resize(adj.n_dst, d_in_); // resize zero-fills
}

void SageLayer::forward_halo_fold(const BipartiteCsr& adj,
                                  std::span<const NodeId> slots,
                                  std::span<const float> rows) {
  phase_check_.on_halo_fold();
  (void)adj; // geometry is frozen in the incidence received by _begin
  BNSGCN_CHECK(halo_inc_ != nullptr);
  mean_aggregate_halo_fold(*halo_inc_, slots, rows, d_in_, z_halo_);
}

Matrix SageLayer::forward_halo_finish(const BipartiteCsr& adj,
                                      std::span<const float> inv_deg) {
  phase_check_.on_halo_finish();
  (void)adj;
  halo_inc_ = nullptr; // every fold landed; the incidence may now go away
  for (std::int64_t i = 0; i < z_partial_.size(); ++i)
    z_partial_.data()[i] += z_halo_.data()[i];
  mean_aggregate_finish(inv_deg, z_partial_);

  Matrix out = std::move(out_partial_);
  ops::gemm_nn(z_partial_, w_neigh_, out, 1.0f);

  // Inference has no backward, so the ReLU mask is skipped — the output
  // values are untouched by the skip.
  if (opts_.relu) {
    if (inference_) {
      ops::relu_forward(out);
    } else {
      ops::relu_forward(out, relu_mask_);
    }
  }
  if (cached_training_ && opts_.dropout > 0.0f) {
    ops::dropout_forward(out, dropout_mask_, opts_.dropout, dropout_rng_);
  } else {
    dropout_mask_.resize(0, 0);
  }
  return out;
}

void SageLayer::backward_begin(const BipartiteCsr& adj, const Matrix& dout) {
  phase_check_.on_backward_begin();
  BNSGCN_CHECK(dout.rows() == adj.n_dst && dout.cols() == d_out_);
  g_cache_ = dout;
  if (cached_training_ && !dropout_mask_.empty()) {
    ops::dropout_backward(g_cache_, dropout_mask_);
  }
  if (opts_.relu) {
    ops::relu_backward(g_cache_, relu_mask_);
  }
}

Matrix SageLayer::backward_halo(const BipartiteCsr& adj, const Matrix& dout,
                                std::span<const float> inv_deg) {
  backward_begin(adj, dout);
  phase_check_.on_backward_halo();
  // Only what the wire needs happens before the exchange is posted: the
  // activation backward and the halo-source scatter. Parameter gradients
  // wait for backward_params — they feed nothing until the epoch-end
  // allreduce. gemm_nt's element (i, j) reads only row j of its weight,
  // so each block gives the bits of that half of g·Wᵀ. With beta 0 it
  // overwrites C, so dz_cache_ keeps its shape across backwards unfilled;
  // dself_cache_ moved into the last B2's dinner and is allocated anew.
  dz_cache_.ensure_shape(adj.n_dst, d_in_);
  dself_cache_.resize(adj.n_dst, d_in_);
  ops::gemm_nt(g_cache_, w_neigh_, dz_cache_);
  ops::gemm_nt(g_cache_, w_self_, dself_cache_);

  Matrix dhalo(adj.n_src - adj.n_dst, d_in_);
  mean_aggregate_backward_halo(adj, dz_cache_, inv_deg, adj.n_dst, dhalo);
  return dhalo;
}

Matrix SageLayer::backward_inner(const BipartiteCsr& adj,
                                 std::span<const float> inv_deg) {
  phase_check_.on_backward_inner();
  // The self rows' gradient lands on the inner rows 1:1, and nothing reads
  // it after this phase.
  Matrix dinner = std::move(dself_cache_);
  mean_aggregate_backward_inner(adj, dz_cache_, inv_deg, adj.n_dst, dinner);
  return dinner;
}

void SageLayer::backward_params(const BipartiteCsr&) {
  phase_check_.on_backward_params();
  // Deferred B3: dW/db feed nothing before the epoch-end allreduce, so the
  // trainer runs this inside the *next* layer's exchange window. z, the
  // self rows and g_cache_ stay untouched until the next forward.
  // gemm_tn's element (kk, j) reads only column kk of its left operand, so
  // each block gives the bits of that half of [z | self]ᵀ·g.
  ops::gemm_tn(z_partial_, g_cache_, dw_neigh_, 1.0f);
  ops::gemm_tn(self_cache_, g_cache_, dw_self_, 1.0f);
  ops::col_sum(g_cache_, db_);
}

void SageLayer::release_training_state() {
  dw_neigh_.resize(0, 0);
  dw_self_.resize(0, 0);
  db_.resize(0, 0);
  relu_mask_.resize(0, 0);
  dropout_mask_.resize(0, 0);
  dz_cache_.resize(0, 0);
  dself_cache_.resize(0, 0);
  g_cache_.resize(0, 0);
  self_cache_.resize(0, 0); // inference reads the inner block in place
}

} // namespace bnsgcn::nn

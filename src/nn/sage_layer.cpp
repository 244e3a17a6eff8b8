#include "nn/sage_layer.hpp"

#include "tensor/ops.hpp"

namespace bnsgcn::nn {

SageLayer::SageLayer(std::int64_t d_in, std::int64_t d_out,
                     const Options& opts, Rng& rng)
    : Layer(d_in, d_out), opts_(opts), w_(2 * d_in, d_out), b_(1, d_out),
      dw_(2 * d_in, d_out), db_(1, d_out), dropout_rng_(rng.next_u64()) {
  ops::glorot_init(w_, rng);
}

void SageLayer::forward_inner_begin(const BipartiteCsr& adj,
                                    const Matrix& inner_feats, bool training) {
  phase_check_.on_forward_begin(adj.n_dst);
  BNSGCN_CHECK(inner_feats.cols() == d_in_);
  BNSGCN_CHECK(inner_feats.rows() == adj.n_dst);
  cached_training_ = training;
  // Setup only: the halo-independent work — inner-source partial
  // aggregation AND the self half of the transform (u·W splits as
  // z·W[:d_in] + self·W[d_in:] under the concat layout) — runs in the row
  // chunks, so RequestSet polls (and peer folds) can interleave.
  self_cache_ = inner_feats;
  z_partial_.resize(adj.n_dst, d_in_); // resize zero-fills
  w_half_.resize(d_in_, d_out_);
  std::copy(w_.data() + d_in_ * d_out_, w_.data() + 2 * d_in_ * d_out_,
            w_half_.data());
  out_partial_.resize(adj.n_dst, d_out_);
}

void SageLayer::forward_inner_chunk(const BipartiteCsr& adj, NodeId row0,
                                    NodeId row1) {
  phase_check_.on_forward_chunk(row0, row1);
  mean_aggregate_inner_rows(adj, self_cache_, row0, row1, z_partial_);
  // Row-range self transform, straight into the output rows: gemm_nn_rows
  // computes each row independently with the fixed k-loop order, so any
  // chunking is bit-identical to one whole-block GEMM — and no chunk
  // stages through heap copies.
  ops::gemm_nn_rows(self_cache_, w_half_, out_partial_, row0, row1);
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
  w_half_.resize(d_in_, d_out_);
  std::copy(w_.data(), w_.data() + d_in_ * d_out_, w_half_.data());
  ops::gemm_nn(z_partial_, w_half_, out, 1.0f, 1.0f);

  // backward_params consumes the assembled concat; inference has no
  // backward, so the cache (and the ReLU mask) are skipped — the output
  // values are untouched by either skip.
  if (!inference_) {
    ops::concat_cols(z_partial_, self_cache_, u_cache_);
  }
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
  // allreduce.
  Matrix du(adj.n_dst, 2 * d_in_);
  ops::gemm_nt(g_cache_, w_, du);
  ops::split_cols(du, dz_cache_, dself_cache_, d_in_);

  Matrix dhalo(adj.n_src - adj.n_dst, d_in_);
  mean_aggregate_backward_halo(adj, dz_cache_, inv_deg, adj.n_dst, dhalo);
  return dhalo;
}

Matrix SageLayer::backward_inner(const BipartiteCsr& adj,
                                 std::span<const float> inv_deg) {
  phase_check_.on_backward_inner();
  Matrix dinner = dself_cache_; // the self half lands on inner rows 1:1
  mean_aggregate_backward_inner(adj, dz_cache_, inv_deg, adj.n_dst, dinner);
  return dinner;
}

void SageLayer::backward_params(const BipartiteCsr&) {
  phase_check_.on_backward_params();
  // Deferred B3: dW/db feed nothing before the epoch-end allreduce, so the
  // trainer runs this inside the *next* layer's exchange window. u_cache_
  // and g_cache_ stay untouched until the next forward.
  ops::gemm_tn(u_cache_, g_cache_, dw_, 1.0f, 1.0f);
  ops::col_sum(g_cache_, db_);
}

void SageLayer::release_training_state() {
  dw_.resize(0, 0);
  db_.resize(0, 0);
  u_cache_.resize(0, 0);
  relu_mask_.resize(0, 0);
  dropout_mask_.resize(0, 0);
  dz_cache_.resize(0, 0);
  dself_cache_.resize(0, 0);
  g_cache_.resize(0, 0);
}

} // namespace bnsgcn::nn

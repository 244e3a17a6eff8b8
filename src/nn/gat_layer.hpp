#pragma once

#include "nn/layer.hpp"

namespace bnsgcn::nn {

/// Graph attention layer (Veličković et al. 2017), used by the paper's
/// Table 10 to show BNS-GCN generalizes beyond GraphSAGE.
///
/// Per head: e_vu = LeakyReLU(a_srcᵀ W h_u + a_dstᵀ W h_v) over u ∈ N(v)∪{v},
/// α = softmax(e), out_v = Σ_u α_vu W h_u; heads are concatenated.
///
/// Under boundary-node sampling the softmax renormalizes over the kept
/// neighbors, so no 1/p correction is applied (the estimator is the standard
/// subsampled-attention one; `inv_deg` is ignored).
/// GAT's attention combine (phase F2c) for one head: for every destination
/// v, out[v, col0 + c] += alpha[e] * wh[u, c] over v's entries e — its arcs
/// in adjacency order, then v itself — for c in [0, wh.cols()). `alpha`
/// holds deg + 1 entries per row starting at offsets[v] + v, self last.
/// Runs the AVX-512F kernel when the host has it, the scalar loop
/// otherwise; both give the same bits (docs/ARCHITECTURE.md §6).
void gat_combine(const BipartiteCsr& adj, std::span<const float> alpha,
                 const Matrix& wh, std::int64_t col0, Matrix& out);

/// GAT's attention scores and softmax (phase F2c) for one head. For every
/// destination v, over its entries i — its arcs in adjacency order, then v
/// itself, at offsets[v] + v — with sources u_i:
///   e_i = s_src[u_i] + s_dst[v], times leaky_slope where e_i <= 0;
///   m = the largest of -1e30 and the e_i (a NaN e_i never is);
///   alpha[i] = exp(e_i - m) · (1 / Σ_j exp(e_j - m)),
/// the exps and their sum taken in entry order. A non-empty `slopes`
/// receives each entry's LeakyReLU derivative, 1 or leaky_slope. Runs the
/// AVX-512F kernel when the host has it, the scalar loop otherwise; both
/// give the same bits (docs/ARCHITECTURE.md §6).
void gat_scores(const BipartiteCsr& adj, std::span<const float> s_src,
                std::span<const float> s_dst, float leaky_slope,
                std::span<float> alpha, std::span<float> slopes);

class GatLayer final : public Layer {
 public:
  struct Options {
    int heads = 1;
    bool relu = true;      // activation on the concatenated output
    float dropout = 0.0f;
    float leaky_slope = 0.2f;
  };

  /// d_out must be divisible by heads; each head produces d_out/heads dims.
  GatLayer(std::int64_t d_in, std::int64_t d_out, const Options& opts,
           Rng& rng);

  // Split-phase protocol (see Layer). Attention itself needs the full
  // neighbor set at once, but the per-head linear transforms Wh and the
  // score projections are per-row: phase F1 transforms the inner block in
  // destination-row chunks (polls interleave between chunks), each
  // per-peer fold transforms that peer's halo slab the moment it lands —
  // inner chunks and halo folds write disjoint rows of wh/s_src, so their
  // interleaving is free — and only the attention softmax waits for the
  // finish call. The row-split GEMMs reproduce one whole-block transform
  // bit-for-bit (gemm_nn is row-independent), so neither the schedule nor
  // any chunk size changes GAT numerics. Backward: B0 runs the activation
  // and attention backward; B1 emits the halo-source input gradients for
  // the wire; B2 computes the inner input gradients while the gradient
  // exchange is in flight; B3 (backward_params, deferred by the trainer
  // into the next layer's exchange window) runs the dW GEMM over the
  // cached assembled feats.
  void forward_inner_begin(const BipartiteCsr& adj, const Matrix& inner_feats,
                           bool training) override;
  void forward_inner_chunk(const BipartiteCsr& adj, NodeId row0,
                           NodeId row1) override;
  void forward_halo_begin(const BipartiteCsr& adj,
                          const HaloIncidence& inc) override;
  void forward_halo_fold(const BipartiteCsr& adj,
                         std::span<const NodeId> slots,
                         std::span<const float> rows) override;
  [[nodiscard]] Matrix forward_halo_finish(
      const BipartiteCsr& adj, std::span<const float> inv_deg) override;
  void backward_begin(const BipartiteCsr& adj, const Matrix& dout) override;
  [[nodiscard]] Matrix backward_halo(const BipartiteCsr& adj,
                                     const Matrix& dout,
                                     std::span<const float> inv_deg) override;
  [[nodiscard]] Matrix backward_inner(
      const BipartiteCsr& adj, std::span<const float> inv_deg) override;
  void backward_params(const BipartiteCsr& adj) override;

  std::vector<Matrix*> params() override;
  std::vector<Matrix*> grads() override;

  void set_dropout_rng(Rng rng) { dropout_rng_ = rng; }

 protected:
  void release_training_state() override;

 private:
  struct Head {
    Matrix w;      // (d_in, d_head)
    Matrix a_src;  // (d_head, 1)
    Matrix a_dst;  // (d_head, 1)
    Matrix dw, da_src, da_dst;

    // caches
    Matrix wh;                  // (n_src, d_head)
    std::vector<float> alpha;   // per (dst, nbr∪self) entry
    std::vector<float> slope;   // LeakyReLU derivative per entry
    std::vector<float> s_src;   // n_src
    std::vector<float> s_dst;   // n_dst
    Matrix dwh;                 // (n_src, d_head), from B0 for B1–B3
  };

  /// The attention forward over fully-assembled per-head wh/s caches
  /// (phase F2c).
  [[nodiscard]] Matrix attention_forward(const BipartiteCsr& adj,
                                         bool training);
  /// The attention backward of head `hi` over the cached alpha/slope/wh
  /// (phase B0): accumulates da_src/da_dst and the per-source dWh into
  /// `dwh` (pre-sized (n_src, d_head), zeroed).
  void attention_backward_head(const BipartiteCsr& adj, const Matrix& g,
                               std::size_t hi, Matrix& dwh);
  /// Fill s_src entries for wh rows [row0, row0+count).
  static void score_src_rows(Head& h, NodeId row0, NodeId count);
  /// Fill s_dst entries for wh rows [row0, row0+count).
  static void score_dst_rows(Head& h, NodeId row0, NodeId count);

  Options opts_;
  std::int64_t d_head_;
  std::vector<Head> heads_;
  Rng dropout_rng_;

  /// Training: the assembled (n_src, d_in) source block, inner rows then
  /// each fold's halo rows, which B3 reads. Inference leaves it empty.
  Matrix feats_cache_;
  /// What the F1 chunks multiply: feats_cache_ in training, the caller's
  /// inner block in inference (Layer::forward_inner_begin's lifetime rule).
  const Matrix* inner_src_ = nullptr;
  /// Checked builds: how often each halo row of wh was folded this forward.
  /// The finish requires exactly once each.
  std::vector<int> halo_folds_;
  Matrix relu_mask_;
  Matrix dropout_mask_;
  bool cached_training_ = false;
};

} // namespace bnsgcn::nn

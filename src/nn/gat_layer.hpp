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

  Matrix forward(const BipartiteCsr& adj, const Matrix& feats,
                 std::span<const float> inv_deg, bool training) override;
  Matrix backward(const BipartiteCsr& adj, const Matrix& dout,
                  std::span<const float> inv_deg) override;

  // Split-phase protocol (see Layer). Attention itself needs the full
  // neighbor set at once, but the per-head linear transforms Wh and the
  // score projections are per-row: phase F1 transforms the inner block in
  // destination-row chunks (polls interleave between chunks), each
  // per-peer fold transforms that peer's halo slab the moment it lands —
  // inner chunks and halo folds write disjoint rows of wh/s_src, so their
  // interleaving is free — and only the attention softmax waits for the
  // finish call. The row-split GEMMs reproduce the fused forward
  // bit-for-bit (gemm_nn is row-independent), so neither the phased
  // schedule nor any chunk size changes GAT numerics. Backward: B1 runs
  // activation+attention backward and emits the halo-source input
  // gradients for the wire; B2 computes the inner input gradients while
  // the gradient exchange is in flight; B3 (backward_params, deferred by
  // the trainer into the next layer's exchange window) runs the fused dW
  // GEMM over the cached assembled feats.
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
    Matrix dwh;                 // backward split: (n_src, d_head), B1→B2
  };

  /// Entry offset of dst v in the per-edge arrays (each dst owns deg+1
  /// slots, self last).
  [[nodiscard]] static std::size_t entry_offset(const BipartiteCsr& adj,
                                                NodeId v) {
    return static_cast<std::size_t>(
        adj.offsets[static_cast<std::size_t>(v)] + v);
  }

  /// The attention forward over fully-assembled per-head wh/s caches:
  /// shared by the fused forward and forward_halo_finish so the two paths
  /// are the same code (and therefore bitwise identical).
  [[nodiscard]] Matrix attention_forward(const BipartiteCsr& adj,
                                         bool training);
  /// The attention backward of head `hi` over the cached alpha/slope/wh:
  /// accumulates da_src/da_dst and the per-source dWh into `dwh` (pre-sized
  /// (n_src, d_head), zeroed). Shared by the fused backward and the B1
  /// phase so both paths are the same code.
  void attention_backward_head(const BipartiteCsr& adj, const Matrix& g,
                               std::size_t hi, Matrix& dwh);
  /// Fill s_src entries for wh rows [row0, row0+count).
  static void score_src_rows(Head& h, NodeId row0, NodeId count);
  /// Fill s_dst entries for wh rows [row0, row0+count) — shared by the
  /// fused forward and the chunked F1 so both paths are the same code.
  static void score_dst_rows(Head& h, NodeId row0, NodeId count);

  Options opts_;
  std::int64_t d_head_;
  std::vector<Head> heads_;
  Rng dropout_rng_;

  Matrix feats_cache_;
  Matrix relu_mask_;
  Matrix dropout_mask_;
  bool cached_training_ = false;
};

} // namespace bnsgcn::nn

#pragma once

#include "nn/layer.hpp"

namespace bnsgcn::nn {

/// GraphSAGE layer with a mean aggregator (the paper's Section 2 instance):
///   z_v = mean_{u in N(v)} h_u                      (Eq. 1)
///   h'_v = act(W · concat(z_v, h_v) + b)            (Eq. 2)
/// Optional ReLU and inverted dropout on the output (hidden layers); the
/// final layer emits raw logits. W is held as its two row blocks, as in
/// DGL's and PyG's SAGEConv: z·W_neigh + h·W_self, with no concatenated
/// [z | h] or split gradient ever materialized. params() is
/// [W_neigh, W_self, b], whose flattened form is byte for byte that of
/// [W, b] with W = [W_neigh; W_self] (docs/ARCHITECTURE.md §6).
class SageLayer final : public Layer {
 public:
  struct Options {
    bool relu = true;
    float dropout = 0.0f;
  };

  SageLayer(std::int64_t d_in, std::int64_t d_out, const Options& opts,
            Rng& rng);

  // Split-phase protocol (see Layer): the mean aggregator decomposes into
  // an inner-source partial sum (chunked by destination row — each row's
  // work is independent, so any chunking is bit-exact) plus per-peer halo
  // folds (streamed through the slot→dst reverse incidence as each slab
  // lands, into a separate accumulator combined at finish so folds may
  // interleave mid-F1), and the backward scatter into disjoint inner/halo
  // target halves, so SAGE supports full streaming overlap. B0 is the
  // activation backward; the parameter gradients live in backward_params
  // (the cross-layer-deferred B3 phase), which needs only B0's state.
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

  std::vector<Matrix*> params() override {
    return {&w_neigh_, &w_self_, &b_};
  }
  std::vector<Matrix*> grads() override {
    return {&dw_neigh_, &dw_self_, &db_};
  }

  /// RNG used for dropout masks; reseeded per rank by the trainer.
  void set_dropout_rng(Rng rng) { dropout_rng_ = rng; }

 protected:
  void release_training_state() override;

 private:
  Options opts_;
  Rng dropout_rng_;
  Matrix w_neigh_;  // (d_in, d_out) — multiplies the aggregate z
  Matrix w_self_;   // (d_in, d_out) — multiplies the node's own row
  Matrix b_;        // (1, d_out)
  Matrix dw_neigh_;
  Matrix dw_self_;
  Matrix db_;

  // Forward caches for backward.
  Matrix relu_mask_;
  Matrix dropout_mask_;
  bool cached_training_ = false;

  // Split-phase scratch (valid between the calls of a phase group).
  Matrix z_partial_;     // forward: unnormalized inner-source sums, then
                         // (from finish on) the aggregate z that B3 reads
  Matrix z_halo_;        // forward: folded halo sums — separate from
                         // z_partial_ so folds may land mid-F1 without
                         // perturbing the per-row order; combined at finish
  const HaloIncidence* halo_inc_ = nullptr; // caller-owned, set by
                                            // forward_halo_begin
  Matrix self_cache_;    // forward, training: the inner feature block
                         // (B3 reads it)
  /// What the F1 chunks read: self_cache_ in training, the caller's inner
  /// block in inference (the lifetime rule of Layer::forward_inner_begin).
  const Matrix* inner_src_ = nullptr;
  Matrix out_partial_;   // forward: self·W_self + b, built in phase F1
  Matrix dz_cache_;      // backward: gradient of z, g·W_neighᵀ
  Matrix dself_cache_;   // backward: gradient of the self rows, g·W_selfᵀ
  Matrix g_cache_;       // backward: post-activation gradient (for dw/db)
};

} // namespace bnsgcn::nn

#pragma once

#include "nn/layer.hpp"

namespace bnsgcn::nn {

/// GraphSAGE layer with a mean aggregator (the paper's Section 2 instance):
///   z_v = mean_{u in N(v)} h_u                      (Eq. 1)
///   h'_v = act(W · concat(z_v, h_v) + b)            (Eq. 2)
/// Optional ReLU and inverted dropout on the output (hidden layers); the
/// final layer emits raw logits.
class SageLayer final : public Layer {
 public:
  struct Options {
    bool relu = true;
    float dropout = 0.0f;
  };

  SageLayer(std::int64_t d_in, std::int64_t d_out, const Options& opts,
            Rng& rng);

  Matrix forward(const BipartiteCsr& adj, const Matrix& feats,
                 std::span<const float> inv_deg, bool training) override;
  Matrix backward(const BipartiteCsr& adj, const Matrix& dout,
                  std::span<const float> inv_deg) override;

  // Split-phase protocol (see Layer): the mean aggregator decomposes into
  // an inner-source partial sum (chunked by destination row — each row's
  // work is independent, so any chunking is bit-exact) plus per-peer halo
  // folds (streamed through the slot→dst reverse incidence as each slab
  // lands, into a separate accumulator combined at finish so folds may
  // interleave mid-F1), and the backward scatter into disjoint inner/halo
  // target halves, so SAGE supports full streaming overlap. Parameter
  // gradients live in backward_params (the cross-layer-deferred B3 phase).
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

  std::vector<Matrix*> params() override { return {&w_, &b_}; }
  std::vector<Matrix*> grads() override { return {&dw_, &db_}; }

  /// RNG used for dropout masks; reseeded per rank by the trainer.
  void set_dropout_rng(Rng rng) { dropout_rng_ = rng; }

 protected:
  void release_training_state() override;

 private:
  Options opts_;
  Matrix w_;  // (2*d_in, d_out)
  Matrix b_;  // (1, d_out)
  Matrix dw_;
  Matrix db_;
  Rng dropout_rng_;

  // Forward caches for backward.
  Matrix u_cache_;       // (n_dst, 2*d_in) — concat(z, h_self)
  Matrix relu_mask_;
  Matrix dropout_mask_;
  bool cached_training_ = false;

  // Split-phase scratch (valid between the calls of a phase group).
  Matrix z_partial_;     // forward: unnormalized inner-source sums
  Matrix z_halo_;        // forward: folded halo sums — separate from
                         // z_partial_ so folds may land mid-F1 without
                         // perturbing the per-row order; combined at finish
  const HaloIncidence* halo_inc_ = nullptr; // trainer-owned, set per epoch
                                            // by forward_halo_begin
  Matrix self_cache_;    // forward: the inner feature block
  Matrix out_partial_;   // forward: self·W_self + b, built in phase F1
  Matrix w_half_;        // staging copy of one d_in-row half of w_
  Matrix dz_cache_;      // backward: aggregation-half gradient
  Matrix dself_cache_;   // backward: self-half gradient
  Matrix g_cache_;       // backward: post-activation gradient (for dw/db)
};

} // namespace bnsgcn::nn

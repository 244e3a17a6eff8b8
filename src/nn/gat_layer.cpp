#include "nn/gat_layer.hpp"

#include <algorithm>
#include <cmath>

#include "nn/aggregate_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace bnsgcn::nn {

namespace detail {

void gat_combine_scalar(const BipartiteCsr& adj, std::span<const float> alpha,
                        const Matrix& wh, std::int64_t col0, Matrix& out) {
  const std::int64_t dh = wh.cols();
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto nb = adj.neighbors(v);
    const float* a = alpha.data() + gat_entry_offset(adj, v);
    float* o = out.data() + static_cast<std::int64_t>(v) * out.cols() + col0;
    for (std::size_t i = 0; i <= nb.size(); ++i) {
      const NodeId u = (i < nb.size()) ? nb[i] : v;
      const float ai = a[i];
      const float* s = wh.data() + static_cast<std::int64_t>(u) * dh;
      for (std::int64_t c = 0; c < dh; ++c) o[c] += ai * s[c];
    }
  }
}

void gat_scores_scalar(const BipartiteCsr& adj, std::span<const float> s_src,
                       std::span<const float> s_dst, float leaky_slope,
                       std::span<float> alpha, std::span<float> slopes) {
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto nb = adj.neighbors(v);
    const std::size_t base = gat_entry_offset(adj, v);
    const std::size_t cnt = nb.size() + 1; // + self
    float* a = alpha.data() + base;
    float mx = -1e30f;
    for (std::size_t i = 0; i < cnt; ++i) {
      const NodeId u = (i < nb.size()) ? nb[i] : v;
      float e = s_src[static_cast<std::size_t>(u)] +
                s_dst[static_cast<std::size_t>(v)];
      float slope = 1.0f;
      if (e <= 0.0f) {
        e *= leaky_slope;
        slope = leaky_slope;
      }
      if (!slopes.empty()) slopes[base + i] = slope;
      a[i] = e;
      mx = std::max(mx, e);
    }
    const float inv = 1.0f / gat_exp_sum(a, cnt, mx);
    for (std::size_t i = 0; i < cnt; ++i) a[i] *= inv;
  }
}

} // namespace detail

void gat_combine(const BipartiteCsr& adj, std::span<const float> alpha,
                 const Matrix& wh, std::int64_t col0, Matrix& out) {
  BNSGCN_CHECK(alpha.size() == static_cast<std::size_t>(adj.num_edges()) +
                                   static_cast<std::size_t>(adj.n_dst));
  BNSGCN_CHECK(wh.rows() == adj.n_src && adj.n_dst <= adj.n_src);
  BNSGCN_CHECK(out.rows() == adj.n_dst);
  BNSGCN_CHECK(col0 >= 0 && col0 + wh.cols() <= out.cols());
  if (simd::host_has_avx512f()) {
    detail::gat_combine_avx512(adj, alpha, wh, col0, out);
  } else {
    detail::gat_combine_scalar(adj, alpha, wh, col0, out);
  }
}

void gat_scores(const BipartiteCsr& adj, std::span<const float> s_src,
                std::span<const float> s_dst, float leaky_slope,
                std::span<float> alpha, std::span<float> slopes) {
  const std::size_t n_entries = static_cast<std::size_t>(adj.num_edges()) +
                                static_cast<std::size_t>(adj.n_dst);
  BNSGCN_CHECK(alpha.size() == n_entries);
  BNSGCN_CHECK(slopes.empty() || slopes.size() == n_entries);
  BNSGCN_CHECK(s_src.size() == static_cast<std::size_t>(adj.n_src));
  BNSGCN_CHECK(s_dst.size() == static_cast<std::size_t>(adj.n_dst));
  BNSGCN_CHECK(adj.n_dst <= adj.n_src);
  if (simd::host_has_avx512f()) {
    detail::gat_scores_avx512(adj, s_src, s_dst, leaky_slope, alpha, slopes);
  } else {
    detail::gat_scores_scalar(adj, s_src, s_dst, leaky_slope, alpha, slopes);
  }
}

GatLayer::GatLayer(std::int64_t d_in, std::int64_t d_out, const Options& opts,
                   Rng& rng)
    : Layer(d_in, d_out), opts_(opts), dropout_rng_(rng.next_u64()) {
  BNSGCN_CHECK(opts.heads >= 1 && d_out % opts.heads == 0);
  d_head_ = d_out / opts.heads;
  heads_.resize(static_cast<std::size_t>(opts.heads));
  for (auto& h : heads_) {
    h.w.resize(d_in, d_head_);
    ops::glorot_init(h.w, rng);
    h.a_src.resize(d_head_, 1);
    h.a_dst.resize(d_head_, 1);
    ops::glorot_init(h.a_src, rng);
    ops::glorot_init(h.a_dst, rng);
    h.dw.resize(d_in, d_head_);
    h.da_src.resize(d_head_, 1);
    h.da_dst.resize(d_head_, 1);
  }
}

std::vector<Matrix*> GatLayer::params() {
  std::vector<Matrix*> out;
  for (auto& h : heads_) {
    out.push_back(&h.w);
    out.push_back(&h.a_src);
    out.push_back(&h.a_dst);
  }
  return out;
}

std::vector<Matrix*> GatLayer::grads() {
  std::vector<Matrix*> out;
  for (auto& h : heads_) {
    out.push_back(&h.dw);
    out.push_back(&h.da_src);
    out.push_back(&h.da_dst);
  }
  return out;
}

void GatLayer::score_src_rows(Head& h, NodeId row0, NodeId count) {
  const std::int64_t dh = h.w.cols();
  for (NodeId u = row0; u < row0 + count; ++u) {
    const float* row = h.wh.data() + static_cast<std::int64_t>(u) * dh;
    float acc = 0.0f;
    for (std::int64_t c = 0; c < dh; ++c) acc += row[c] * h.a_src.data()[c];
    h.s_src[static_cast<std::size_t>(u)] = acc;
  }
}

void GatLayer::score_dst_rows(Head& h, NodeId row0, NodeId count) {
  const std::int64_t dh = h.w.cols();
  for (NodeId v = row0; v < row0 + count; ++v) {
    const float* row = h.wh.data() + static_cast<std::int64_t>(v) * dh;
    float acc = 0.0f;
    for (std::int64_t c = 0; c < dh; ++c) acc += row[c] * h.a_dst.data()[c];
    h.s_dst[static_cast<std::size_t>(v)] = acc;
  }
}

Matrix GatLayer::attention_forward(const BipartiteCsr& adj, bool training) {
  const std::size_t n_entries =
      static_cast<std::size_t>(adj.num_edges()) +
      static_cast<std::size_t>(adj.n_dst);
  Matrix out(adj.n_dst, d_out_);

  for (std::size_t hi = 0; hi < heads_.size(); ++hi) {
    Head& h = heads_[hi];
    // Every entry is written before it is read: no fill.
    h.alpha.resize(n_entries);
    // The LeakyReLU slopes feed only the attention backward; inference
    // skips the whole per-entry array.
    if (!inference_) h.slope.resize(n_entries);
    gat_scores(adj, h.s_src, h.s_dst, opts_.leaky_slope, h.alpha,
               inference_ ? std::span<float>{} : std::span<float>(h.slope));
    // Weighted combine into this head's columns, once every row's
    // attention is known.
    gat_combine(adj, h.alpha, h.wh, static_cast<std::int64_t>(hi) * d_head_,
                out);
  }

  if (opts_.relu) {
    if (inference_) {
      ops::relu_forward(out);
    } else {
      ops::relu_forward(out, relu_mask_);
    }
  }
  if (training && opts_.dropout > 0.0f) {
    ops::dropout_forward(out, dropout_mask_, opts_.dropout, dropout_rng_);
  } else {
    dropout_mask_.resize(0, 0);
  }
  return out;
}

void GatLayer::forward_inner_begin(const BipartiteCsr& adj,
                                   const Matrix& inner_feats, bool training) {
  phase_check_.on_forward_begin(adj.n_dst);
  BNSGCN_CHECK(inner_feats.cols() == d_in_);
  BNSGCN_CHECK(inner_feats.rows() == adj.n_dst);
  cached_training_ = training;
  // The per-row transform and score work runs in the chunks; inner chunks
  // (rows < n_dst) and halo folds (rows >= n_dst) write disjoint rows of
  // wh/s_src, so folds may land at any point of the chunk loop. Together
  // they write every row, so nothing here fills: wh keeps its shape while
  // the plan's n_src does. Inference multiplies the caller's inner block
  // in place; training assembles the feats cache — inner block now, one
  // peer's rows per fold — for backward_params' one dW GEMM.
  if (inference_) {
    inner_src_ = &inner_feats;
  } else {
    feats_cache_.resize(adj.n_src, d_in_);
    std::copy(inner_feats.data(), inner_feats.data() + inner_feats.size(),
              feats_cache_.data());
    inner_src_ = &feats_cache_;
  }
  for (auto& h : heads_) {
    h.wh.ensure_shape(adj.n_src, d_head_);
    h.s_src.resize(static_cast<std::size_t>(adj.n_src));
    h.s_dst.resize(static_cast<std::size_t>(adj.n_dst));
  }
  if constexpr (kCheckedBuild)
    halo_folds_.assign(static_cast<std::size_t>(adj.n_src - adj.n_dst), 0);
}

void GatLayer::forward_inner_chunk(const BipartiteCsr& adj, NodeId row0,
                                   NodeId row1) {
  phase_check_.on_forward_chunk(row0, row1);
  BNSGCN_CHECK(row0 >= 0 && row0 <= row1 && row1 <= adj.n_dst);
  const NodeId cnt = row1 - row0;
  if (cnt == 0) return;
  // Row-range transform straight into each head's wh rows — no staging
  // copy per chunk, and bit-identical to one whole-block transform for
  // every chunking (gemm_nn_rows keeps the fixed per-row k-loop order).
  for (auto& h : heads_) {
    ops::gemm_nn_rows(*inner_src_, h.w, h.wh, row0, row1);
    score_src_rows(h, row0, cnt);
    score_dst_rows(h, row0, cnt);
  }
}

void GatLayer::forward_halo_begin(const BipartiteCsr&,
                                  const HaloIncidence&) {
  phase_check_.on_halo_begin();
  // The incidence is for aggregation-style folds; GAT's per-peer slabs go
  // straight through the per-head transform instead.
}

void GatLayer::forward_halo_fold(const BipartiteCsr& adj,
                                 std::span<const NodeId> slots,
                                 std::span<const float> rows) {
  phase_check_.on_halo_fold();
  BNSGCN_CHECK(rows.size() == slots.size() * static_cast<std::size_t>(d_in_));
  if (slots.empty()) return;
  if constexpr (kCheckedBuild) {
    for (const NodeId s : slots) {
      BNSGCN_BOUNDS(s, adj.n_src - adj.n_dst);
      ++halo_folds_[static_cast<std::size_t>(s)];
    }
  }
  // The halo rows of feats_cache_ exist only for backward_params' dW
  // GEMM; the forward reads wh/s_src instead, so inference skips the
  // scatter (the forward output is untouched).
  if (!inference_) {
    for (std::size_t t = 0; t < slots.size(); ++t) {
      const NodeId u = adj.n_dst + slots[t];
      BNSGCN_CHECK(u >= adj.n_dst && u < adj.n_src);
      std::copy(rows.data() + t * static_cast<std::size_t>(d_in_),
                rows.data() + (t + 1) * static_cast<std::size_t>(d_in_),
                feats_cache_.data() + static_cast<std::int64_t>(u) * d_in_);
    }
  }
  // Each head's transform of the slab — the halo share of the linear
  // transform, done while later peers are still in flight — multiplies
  // the slab where it lies straight into wh's halo block, row t landing
  // in halo row slots[t].
  const auto n = static_cast<std::int64_t>(slots.size());
  const ConstMatrixView slab(rows.data(), n, d_in_, d_in_);
  for (auto& h : heads_) {
    const MatrixView halo = MatrixView(h.wh).row_range(adj.n_dst, adj.n_src);
    ops::gemm_nn_rows(slab, h.w, halo, 0, n, 0.0f, slots);
    for (const NodeId s : slots) score_src_rows(h, adj.n_dst + s, 1);
  }
}

Matrix GatLayer::forward_halo_finish(const BipartiteCsr& adj,
                                     std::span<const float> inv_deg) {
  phase_check_.on_halo_finish();
  (void)inv_deg; // attention renormalizes; see class comment
  BNSGCN_REQUIRE(std::all_of(halo_folds_.begin(), halo_folds_.end(),
                             [](int folds) { return folds == 1; }),
                 "forward_halo_finish: a halo row of wh was not folded "
                 "exactly once");
  return attention_forward(adj, cached_training_);
}

void GatLayer::release_training_state() {
  for (auto& h : heads_) {
    h.dw.resize(0, 0);
    h.da_src.resize(0, 0);
    h.da_dst.resize(0, 0);
    h.dwh.resize(0, 0);
    h.slope.clear();
    h.slope.shrink_to_fit();
  }
  feats_cache_.resize(0, 0); // inference multiplies the inner block in place
  relu_mask_.resize(0, 0);
  dropout_mask_.resize(0, 0);
}

void GatLayer::attention_backward_head(const BipartiteCsr& adj,
                                       const Matrix& g, std::size_t hi,
                                       Matrix& dwh) {
  Head& h = heads_[hi];
  std::vector<float> ds_src(static_cast<std::size_t>(adj.n_src), 0.0f);
  std::vector<float> ds_dst(static_cast<std::size_t>(adj.n_dst), 0.0f);
  // dα of one destination's entries, sized once for the largest.
  NodeId max_deg = 0;
  for (NodeId v = 0; v < adj.n_dst; ++v)
    max_deg = std::max(max_deg, adj.degree(v));
  std::vector<float> dalpha(static_cast<std::size_t>(max_deg) + 1);

  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto nb = adj.neighbors(v);
    const std::size_t base = detail::gat_entry_offset(adj, v);
    const std::size_t cnt = nb.size() + 1;
    const float* gv = g.data() + static_cast<std::int64_t>(v) * d_out_ +
                      static_cast<std::int64_t>(hi) * d_head_;

    // dα_vu = <g_v, Wh_u>; also the α·g contribution to dWh_u.
    float dot_sum = 0.0f; // Σ_k α_vk dα_vk for softmax backward
    // First pass: compute dα and accumulate α-weighted dWh.
    for (std::size_t i = 0; i < cnt; ++i) {
      const NodeId u = (i < nb.size()) ? nb[i] : v;
      const float* whu =
          h.wh.data() + static_cast<std::int64_t>(u) * d_head_;
      float da = 0.0f;
      for (std::int64_t c = 0; c < d_head_; ++c) da += gv[c] * whu[c];
      dalpha[i] = da;
      dot_sum += h.alpha[base + i] * da;
      float* t = dwh.data() + static_cast<std::int64_t>(u) * d_head_;
      const float a = h.alpha[base + i];
      for (std::int64_t c = 0; c < d_head_; ++c) t[c] += a * gv[c];
    }
    // Softmax + LeakyReLU backward into the score sums.
    for (std::size_t i = 0; i < cnt; ++i) {
      const NodeId u = (i < nb.size()) ? nb[i] : v;
      const float de =
          h.alpha[base + i] * (dalpha[i] - dot_sum) * h.slope[base + i];
      ds_src[static_cast<std::size_t>(u)] += de;
      ds_dst[static_cast<std::size_t>(v)] += de;
    }
  }

  // s_src[u] = <Wh_u, a_src> → da_src = Whᵀ ds_src; dWh_u += ds_src[u]·a_src
  for (NodeId u = 0; u < adj.n_src; ++u) {
    const float d = ds_src[static_cast<std::size_t>(u)];
    if (d == 0.0f) continue;
    const float* whu = h.wh.data() + static_cast<std::int64_t>(u) * d_head_;
    float* t = dwh.data() + static_cast<std::int64_t>(u) * d_head_;
    for (std::int64_t c = 0; c < d_head_; ++c) {
      h.da_src.data()[c] += d * whu[c];
      t[c] += d * h.a_src.data()[c];
    }
  }
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const float d = ds_dst[static_cast<std::size_t>(v)];
    if (d == 0.0f) continue;
    const float* whv = h.wh.data() + static_cast<std::int64_t>(v) * d_head_;
    float* t = dwh.data() + static_cast<std::int64_t>(v) * d_head_;
    for (std::int64_t c = 0; c < d_head_; ++c) {
      h.da_dst.data()[c] += d * whv[c];
      t[c] += d * h.a_dst.data()[c];
    }
  }
}

void GatLayer::backward_begin(const BipartiteCsr& adj, const Matrix& dout) {
  phase_check_.on_backward_begin();
  BNSGCN_CHECK(dout.rows() == adj.n_dst && dout.cols() == d_out_);
  // Activation backward, then the attention backward: dWh per head (read
  // by B1/B2 for the input gradients and by B3 for dW) and da_src/da_dst.
  Matrix g = dout;
  if (cached_training_ && !dropout_mask_.empty())
    ops::dropout_backward(g, dropout_mask_);
  if (opts_.relu) ops::relu_backward(g, relu_mask_);
  for (std::size_t hi = 0; hi < heads_.size(); ++hi) {
    Head& h = heads_[hi];
    h.dwh.resize(adj.n_src, d_head_); // zero-filled accumulation target
    attention_backward_head(adj, g, hi, h.dwh);
  }
}

Matrix GatLayer::backward_halo(const BipartiteCsr& adj, const Matrix& dout,
                               std::span<const float> inv_deg) {
  backward_begin(adj, dout);
  phase_check_.on_backward_halo();
  (void)inv_deg;
  // The halo-source input gradients go on the wire; the inner gradients
  // and the dW GEMMs wait for B2/B3 — they feed nothing until the next
  // layer down / the epoch-end allreduce.
  const NodeId n_halo = adj.n_src - adj.n_dst;
  Matrix dhalo(n_halo, d_in_);
  if (n_halo == 0) return dhalo;
  // The halo row range of dWh·Wᵀ, accumulated per head in order.
  for (auto& h : heads_)
    ops::gemm_nt(ConstMatrixView(h.dwh).row_range(adj.n_dst, adj.n_src), h.w,
                 dhalo, 1.0f);
  return dhalo;
}

Matrix GatLayer::backward_inner(const BipartiteCsr& adj,
                                std::span<const float> inv_deg) {
  phase_check_.on_backward_inner();
  (void)inv_deg;
  Matrix dinner(adj.n_dst, d_in_);
  for (auto& h : heads_)
    ops::gemm_nt(ConstMatrixView(h.dwh).row_range(0, adj.n_dst), h.w, dinner,
                 1.0f);
  return dinner;
}

void GatLayer::backward_params(const BipartiteCsr&) {
  phase_check_.on_backward_params();
  // Deferred B3: Wh = feats·W → dW += featsᵀ·dWh, over the assembled feats
  // cache, pushed by the trainer into the next layer's exchange window
  // (feats_cache_ and dwh survive until the next forward; da_src/da_dst
  // were already accumulated in B0).
  for (auto& h : heads_)
    ops::gemm_tn(feats_cache_, h.dwh, h.dw, 1.0f);
}

} // namespace bnsgcn::nn

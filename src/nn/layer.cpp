#include "nn/layer.hpp"

#include <algorithm>
#include <numeric>

#include "common/thread_pool.hpp"
#include "nn/aggregate_kernels.hpp"
#include "tensor/simd.hpp"

namespace bnsgcn::nn {

void BipartiteCsr::validate() const {
  BNSGCN_CHECK(static_cast<NodeId>(offsets.size()) == n_dst + 1);
  BNSGCN_CHECK(offsets.front() == 0);
  BNSGCN_CHECK(offsets.back() == static_cast<EdgeId>(nbrs.size()));
  for (const NodeId u : nbrs) BNSGCN_CHECK(u >= 0 && u < n_src);
  for (std::size_t i = 1; i < offsets.size(); ++i)
    BNSGCN_CHECK(offsets[i - 1] <= offsets[i]);
  BNSGCN_CHECK(edge_scale.empty() || edge_scale.size() == nbrs.size());
}

bool inner_block_is_symmetric(const BipartiteCsr& adj) {
  const NodeId n = adj.n_dst;
  // Walk the arcs in (dst, edge) order — the order the backward scatter
  // adds them in. Arc (v, u) with u inner must be the next unmatched inner
  // entry of row u. When every row's inner entries are then used up, each
  // row u lists, in adjacency order, exactly the v of the arcs (v, u) in
  // the scatter's order.
  std::vector<EdgeId> next(adj.offsets.begin(), adj.offsets.end() - 1);
  const auto skip_halo = [&](NodeId u) {
    const EdgeId end = adj.offsets[static_cast<std::size_t>(u) + 1];
    EdgeId& e = next[static_cast<std::size_t>(u)];
    while (e < end && adj.nbrs[static_cast<std::size_t>(e)] >= n) ++e;
    return e < end;
  };
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : adj.neighbors(v)) {
      if (u >= n) continue;
      if (!skip_halo(u)) return false;
      EdgeId& e = next[static_cast<std::size_t>(u)];
      if (adj.nbrs[static_cast<std::size_t>(e)] != v) return false;
      ++e;
    }
  }
  for (NodeId u = 0; u < n; ++u)
    if (skip_halo(u)) return false;
  return true;
}

namespace detail {

void mean_aggregate_inner_rows_scalar(const BipartiteCsr& adj,
                                      const Matrix& inner_src, NodeId row0,
                                      NodeId row1, Matrix& out) {
  const NodeId n_lo = static_cast<NodeId>(inner_src.rows());
  const std::int64_t d = inner_src.cols();
  const bool weighted = !adj.edge_scale.empty();
  // Row blocks anchored at row0, so chunked-stream callers (chunks can be a
  // single row) see the same split they would inside one big call.
  common::for_blocks(row1 - row0, kRowBlock, [&](std::int64_t b0,
                                                 std::int64_t b1) {
    for (NodeId v = row0 + static_cast<NodeId>(b0);
         v < row0 + static_cast<NodeId>(b1); ++v) {
      float* o = out.data() + static_cast<std::int64_t>(v) * d;
      const auto begin = static_cast<std::size_t>(
          adj.offsets[static_cast<std::size_t>(v)]);
      const auto end = static_cast<std::size_t>(
          adj.offsets[static_cast<std::size_t>(v) + 1]);
      for (std::size_t e = begin; e < end; ++e) {
        const NodeId u = adj.nbrs[e];
        if (u >= n_lo) continue; // halo source: folded by the finish pass
        const float es = weighted ? adj.edge_scale[e] : 1.0f;
        const float* s = inner_src.data() + static_cast<std::int64_t>(u) * d;
        for (std::int64_t c = 0; c < d; ++c) o[c] += es * s[c];
      }
    }
  });
}

void mean_aggregate_halo_fold_scalar(const HaloIncidence& inc,
                                     std::span<const NodeId> slots,
                                     std::span<const float> rows,
                                     std::int64_t d, Matrix& out) {
  // Different slots can hit the same destination row, so this is a scatter:
  // lanes split the feature axis, each replaying the slot/entry walk.
  common::for_blocks(d, kColBlock, [&](std::int64_t c0, std::int64_t c1) {
    for (std::size_t t = 0; t < slots.size(); ++t) {
      const NodeId s = slots[t];
      const float* row = rows.data() + t * static_cast<std::size_t>(d);
      const auto begin = static_cast<std::size_t>(
          inc.offsets[static_cast<std::size_t>(s)]);
      const auto end = static_cast<std::size_t>(
          inc.offsets[static_cast<std::size_t>(s) + 1]);
      for (std::size_t e = begin; e < end; ++e) {
        float* o = out.data() + static_cast<std::int64_t>(inc.dsts[e]) * d;
        const float es = inc.scales[e];
        for (std::int64_t c = c0; c < c1; ++c) o[c] += es * row[c];
      }
    }
  });
}

void mean_aggregate_backward_halo_scalar(const BipartiteCsr& adj,
                                         const Matrix& dout,
                                         std::span<const float> inv_deg,
                                         NodeId n_lo, Matrix& dhalo) {
  const std::int64_t d = dout.cols();
  const bool weighted = !adj.edge_scale.empty();
  common::for_blocks(d, kColBlock, [&](std::int64_t c0, std::int64_t c1) {
    for (NodeId v = 0; v < adj.n_dst; ++v) {
      const float w = inv_deg[static_cast<std::size_t>(v)];
      if (w == 0.0f) continue;
      const float* g = dout.data() + static_cast<std::int64_t>(v) * d;
      const auto begin = static_cast<std::size_t>(
          adj.offsets[static_cast<std::size_t>(v)]);
      const auto end = static_cast<std::size_t>(
          adj.offsets[static_cast<std::size_t>(v) + 1]);
      for (std::size_t e = begin; e < end; ++e) {
        const NodeId u = adj.nbrs[e];
        if (u < n_lo) continue;
        const float wu = weighted ? w * adj.edge_scale[e] : w;
        float* t = dhalo.data() + static_cast<std::int64_t>(u - n_lo) * d;
        for (std::int64_t c = c0; c < c1; ++c) t[c] += wu * g[c];
      }
    }
  });
}

void mean_aggregate_backward_inner_scalar(const BipartiteCsr& adj,
                                          const Matrix& dout,
                                          std::span<const float> inv_deg,
                                          NodeId n_lo, Matrix& dinner) {
  const std::int64_t d = dout.cols();
  const bool weighted = !adj.edge_scale.empty();
  common::for_blocks(d, kColBlock, [&](std::int64_t c0, std::int64_t c1) {
    for (NodeId v = 0; v < adj.n_dst; ++v) {
      const float w = inv_deg[static_cast<std::size_t>(v)];
      if (w == 0.0f) continue;
      const float* g = dout.data() + static_cast<std::int64_t>(v) * d;
      const auto begin = static_cast<std::size_t>(
          adj.offsets[static_cast<std::size_t>(v)]);
      const auto end = static_cast<std::size_t>(
          adj.offsets[static_cast<std::size_t>(v) + 1]);
      for (std::size_t e = begin; e < end; ++e) {
        const NodeId u = adj.nbrs[e];
        if (u >= n_lo) continue;
        const float wu = weighted ? w * adj.edge_scale[e] : w;
        float* t = dinner.data() + static_cast<std::int64_t>(u) * d;
        for (std::int64_t c = c0; c < c1; ++c) t[c] += wu * g[c];
      }
    }
  });
}

} // namespace detail

void mean_aggregate(const BipartiteCsr& adj, const Matrix& src,
                    std::span<const float> inv_deg, Matrix& out) {
  BNSGCN_CHECK(src.rows() == adj.n_src);
  BNSGCN_CHECK(static_cast<NodeId>(inv_deg.size()) == adj.n_dst);
  out.resize(adj.n_dst, src.cols()); // resize zero-fills
  mean_aggregate_inner_rows(adj, src, 0, adj.n_dst, out);
  mean_aggregate_finish(inv_deg, out);
}

void mean_aggregate_inner_rows(const BipartiteCsr& adj,
                               const Matrix& inner_src, NodeId row0,
                               NodeId row1, Matrix& out) {
  BNSGCN_CHECK(inner_src.rows() <= adj.n_src);
  BNSGCN_CHECK(row0 >= 0 && row0 <= row1 && row1 <= adj.n_dst);
  BNSGCN_CHECK(out.rows() == adj.n_dst && out.cols() == inner_src.cols());
  if (simd::host_has_avx512f()) {
    detail::mean_aggregate_inner_rows_avx512(adj, inner_src, row0, row1, out);
  } else {
    detail::mean_aggregate_inner_rows_scalar(adj, inner_src, row0, row1, out);
  }
}

void HaloIncidence::build(const BipartiteCsr& adj, NodeId lo) {
  n_lo = lo;
  n_halo = adj.n_src - lo;
  BNSGCN_CHECK(n_halo >= 0);
  const bool weighted = !adj.edge_scale.empty();
  // Counting pass, then a fill pass — the standard CSR transpose, but only
  // over the halo-source entries.
  offsets.assign(static_cast<std::size_t>(n_halo) + 1, 0);
  for (std::size_t e = 0; e < adj.nbrs.size(); ++e) {
    const NodeId u = adj.nbrs[e];
    if (u >= lo) ++offsets[static_cast<std::size_t>(u - lo) + 1];
  }
  for (std::size_t s = 1; s < offsets.size(); ++s) offsets[s] += offsets[s - 1];
  dsts.assign(static_cast<std::size_t>(offsets.back()), 0);
  scales.assign(static_cast<std::size_t>(offsets.back()), 1.0f);
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto begin = static_cast<std::size_t>(
        adj.offsets[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(
        adj.offsets[static_cast<std::size_t>(v) + 1]);
    for (std::size_t e = begin; e < end; ++e) {
      const NodeId u = adj.nbrs[e];
      if (u < lo) continue;
      const auto at = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(u - lo)]++);
      dsts[at] = v;
      if (weighted) scales[at] = adj.edge_scale[e];
    }
  }
}

void mean_aggregate_halo_fold(const HaloIncidence& inc,
                              std::span<const NodeId> slots,
                              std::span<const float> rows, std::int64_t d,
                              Matrix& out) {
  BNSGCN_CHECK(rows.size() == slots.size() * static_cast<std::size_t>(d));
  BNSGCN_CHECK(out.cols() == d);
  for (const NodeId s : slots) BNSGCN_CHECK(s >= 0 && s < inc.n_halo);
  if (simd::host_has_avx512f()) {
    detail::mean_aggregate_halo_fold_avx512(inc, slots, rows, d, out);
  } else {
    detail::mean_aggregate_halo_fold_scalar(inc, slots, rows, d, out);
  }
}

void mean_aggregate_finish(std::span<const float> inv_deg, Matrix& out) {
  BNSGCN_CHECK(static_cast<NodeId>(inv_deg.size()) == out.rows());
  const std::int64_t d = out.cols();
  common::for_blocks(out.rows(), detail::kRowBlock, [&](std::int64_t v0,
                                                        std::int64_t v1) {
    for (NodeId v = static_cast<NodeId>(v0); v < static_cast<NodeId>(v1);
         ++v) {
      float* o = out.data() + static_cast<std::int64_t>(v) * d;
      const float w = inv_deg[static_cast<std::size_t>(v)];
      if (w == 0.0f) { // isolated destination: the mean is defined as zero
        for (std::int64_t c = 0; c < d; ++c) o[c] = 0.0f;
        continue;
      }
      for (std::int64_t c = 0; c < d; ++c) o[c] *= w;
    }
  });
}

void mean_aggregate_backward_halo(const BipartiteCsr& adj, const Matrix& dout,
                                  std::span<const float> inv_deg, NodeId n_lo,
                                  Matrix& dhalo) {
  BNSGCN_CHECK(dout.rows() == adj.n_dst);
  BNSGCN_CHECK(dhalo.rows() == adj.n_src - n_lo &&
               dhalo.cols() == dout.cols());
  if (simd::host_has_avx512f()) {
    detail::mean_aggregate_backward_halo_avx512(adj, dout, inv_deg, n_lo,
                                                dhalo);
  } else {
    detail::mean_aggregate_backward_halo_scalar(adj, dout, inv_deg, n_lo,
                                                dhalo);
  }
}

void mean_aggregate_backward_inner(const BipartiteCsr& adj, const Matrix& dout,
                                   std::span<const float> inv_deg, NodeId n_lo,
                                   Matrix& dinner) {
  BNSGCN_CHECK(dout.rows() == adj.n_dst);
  BNSGCN_CHECK(dinner.rows() == n_lo && dinner.cols() == dout.cols());
  if (adj.inner_symmetric && adj.edge_scale.empty() && n_lo == adj.n_dst) {
    if constexpr (kCheckedBuild) {
      BNSGCN_REQUIRE(inner_block_is_symmetric(adj),
                     "inner_symmetric set on an inner block that is not its "
                     "own transpose");
    }
    BNSGCN_CHECK(static_cast<NodeId>(inv_deg.size()) == adj.n_dst);
    // The scatter's term for arc (v, u) is w·dout[v] — one product per
    // element, the one its kernels form — added to target u in (v, arc)
    // order. Here the products are formed once per row, and F1 adds them
    // to row u in its adjacency order, which the flag makes that order.
    const std::int64_t d = dout.cols();
    Matrix scaled(dout.rows(), d);
    common::for_blocks(dout.rows(), detail::kRowBlock, [&](std::int64_t v0,
                                                           std::int64_t v1) {
      for (std::int64_t v = v0; v < v1; ++v) {
        const float w = inv_deg[static_cast<std::size_t>(v)];
        const float* g = dout.data() + v * d;
        float* o = scaled.data() + v * d;
        if (w == 0.0f) { // the scatter skips v: add the exact identity
          std::fill(o, o + d, -0.0f);
          continue;
        }
        for (std::int64_t c = 0; c < d; ++c) o[c] = w * g[c];
      }
    });
    mean_aggregate_inner_rows(adj, scaled, 0, adj.n_dst, dinner);
    return;
  }
  if (simd::host_has_avx512f()) {
    detail::mean_aggregate_backward_inner_avx512(adj, dout, inv_deg, n_lo,
                                                 dinner);
  } else {
    detail::mean_aggregate_backward_inner_scalar(adj, dout, inv_deg, n_lo,
                                                 dinner);
  }
}

Matrix Layer::forward(const BipartiteCsr& adj, const Matrix& feats,
                      std::span<const float> inv_deg, bool training) {
  BNSGCN_CHECK(feats.rows() == adj.n_src && feats.cols() == d_in_);
  const std::int64_t n_inner = static_cast<std::int64_t>(adj.n_dst) * d_in_;
  Matrix inner(adj.n_dst, d_in_);
  std::copy(feats.data(), feats.data() + n_inner, inner.data());
  HaloIncidence inc;
  inc.build(adj, adj.n_dst);
  std::vector<NodeId> slots(static_cast<std::size_t>(inc.n_halo));
  std::iota(slots.begin(), slots.end(), NodeId{0});
  forward_inner_begin(adj, inner, training);
  forward_halo_begin(adj, inc);
  forward_inner_chunk(adj, 0, adj.n_dst);
  forward_halo_fold(adj, slots,
                    {feats.data() + n_inner,
                     static_cast<std::size_t>(feats.size() - n_inner)});
  return forward_halo_finish(adj, inv_deg);
}

Matrix Layer::backward(const BipartiteCsr& adj, const Matrix& dout,
                       std::span<const float> inv_deg) {
  const Matrix dhalo = backward_halo(adj, dout, inv_deg);
  const Matrix dinner = backward_inner(adj, inv_deg);
  backward_params(adj);
  Matrix dfeats(adj.n_src, d_in_);
  std::copy(dinner.data(), dinner.data() + dinner.size(), dfeats.data());
  std::copy(dhalo.data(), dhalo.data() + dhalo.size(),
            dfeats.data() + dinner.size());
  return dfeats;
}

void Layer::zero_grads() {
  for (Matrix* g : grads()) g->zero();
}

std::int64_t Layer::num_params() {
  std::int64_t total = 0;
  for (const Matrix* p : params()) total += p->size();
  return total;
}

std::vector<float> flatten_grads(
    const std::vector<std::unique_ptr<Layer>>& layers) {
  std::int64_t total = 0;
  for (const auto& l : layers) total += l->num_params();
  std::vector<float> flat;
  flat.reserve(static_cast<std::size_t>(total));
  for (const auto& l : layers) {
    for (const Matrix* g : l->grads())
      flat.insert(flat.end(), g->data(), g->data() + g->size());
  }
  return flat;
}

void apply_flat_grads(std::span<const float> flat,
                      const std::vector<std::unique_ptr<Layer>>& layers) {
  std::size_t cursor = 0;
  for (const auto& l : layers) {
    for (Matrix* g : l->grads()) {
      BNSGCN_CHECK(cursor + static_cast<std::size_t>(g->size()) <= flat.size());
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(cursor),
                flat.begin() + static_cast<std::ptrdiff_t>(cursor) +
                    static_cast<std::ptrdiff_t>(g->size()),
                g->data());
      cursor += static_cast<std::size_t>(g->size());
    }
  }
  BNSGCN_CHECK(cursor == flat.size());
}

} // namespace bnsgcn::nn

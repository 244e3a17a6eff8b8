// AVX-512F aggregation kernels, picked at run time by nn/layer.cpp. As in
// tensor/gemm_avx512.cpp, only the functions marked
// [[gnu::target("avx512f")]] use AVX-512, every output element runs the
// scalar kernel's exact sequence of single-precision operations — same
// operands, same order, same skips — sixteen elements at a time, every
// product goes through simd::mul() (never a fused multiply-add), and the
// lanes are the scalar kernels' common::for_blocks blocks
// (docs/ARCHITECTURE.md §6, "ISA dispatch"). What changes is which row
// stays in registers:
//
//   * F1, the row gather, keeps its destination row — a tile of up to 128
//     columns — in registers across all of the row's arcs, and stores it
//     once. The scalar kernel reloads and re-stores it on every arc.
//   * The column-split scatters keep their *source* tile in registers:
//     w·dout[v] for the backward halves B1/B2, the slab row for the halo
//     fold F2a. Each arc is then one load, add and store of its target.
//   * GAT's attention combine keeps one head's output tile in registers
//     across the row's arcs and its self term, as F1 does.
//   * GAT's scores pass runs a row's entries 16 at a time; only its exps
//     and their sum stay scalar, in entry order.
//
// An unweighted F1 adds the source row as it is, where the scalar kernel
// adds 1.0f * s: for every non-NaN s — ±0, ±Inf and subnormals included —
// that product is s itself (nothing in the tree enables FTZ/DAZ), and for
// a NaN both give a NaN. An unweighted B1/B2 forms w·dout[v] once per
// destination, the product the scalar kernel recomputes on every arc.

#include <cstdint>

#include "common/thread_pool.hpp"
#include "nn/aggregate_kernels.hpp"
#include "tensor/simd.hpp"

namespace bnsgcn::nn::detail {
namespace {

using simd::ColMasks;
using simd::mul;

// F1 row tile: 8 zmm (128 columns), or 4 when at most 64 columns remain.
constexpr int kGatherVecs = 8;
constexpr std::int64_t kGatherCols = 16 * kGatherVecs;
// Scatter tile: one kColBlock lane.
constexpr int kScatterVecs = static_cast<int>(kColBlock / 16);
static_assert(kColBlock == 16 * kScatterVecs);

/// One F1 tile, columns [c0, c0 + 16·V) of one destination row o:
///   o[c] = o[c] + es * src[u, c]
/// over the inner arcs e of [begin, end) in adjacency order (es =
/// edge_scale[e] when kWeighted; the unweighted add skips the exact ×1.0f).
/// `o` points at the tile's first column.
template <int V, bool kWeighted>
[[gnu::target("avx512f")]] void gather_tile(const BipartiteCsr& adj,
                                            std::size_t begin,
                                            std::size_t end, NodeId n_lo,
                                            const float* src, std::int64_t d,
                                            std::int64_t c0, float* o,
                                            const ColMasks<V>& cols) {
  __m512 acc[V];
#pragma GCC unroll 8
  for (int q = 0; q < V; ++q)
    acc[q] = _mm512_maskz_loadu_ps(cols.m[q], o + 16 * q);
  for (std::size_t e = begin; e < end; ++e) {
    const NodeId u = adj.nbrs[e];
    if (u >= n_lo) continue; // halo source: folded by the finish pass
    const float* s = src + static_cast<std::int64_t>(u) * d + c0;
    const __m512 es = _mm512_set1_ps(kWeighted ? adj.edge_scale[e] : 1.0f);
#pragma GCC unroll 8
    for (int q = 0; q < V; ++q) {
      const __m512 sv = _mm512_maskz_loadu_ps(cols.m[q], s + 16 * q);
      acc[q] = _mm512_add_ps(acc[q], kWeighted ? mul(es, sv) : sv);
    }
  }
#pragma GCC unroll 8
  for (int q = 0; q < V; ++q)
    _mm512_mask_storeu_ps(o + 16 * q, cols.m[q], acc[q]);
}

/// One GAT combine tile, columns [c0, c0 + 16·V) of destination row v:
///   o[c] = o[c] + alpha[i] * wh[u_i, c]
/// over v's entries i in order — its arcs in adjacency order, then v itself
/// — with `alpha` at v's first entry and `o` at the tile's first column.
/// No zero skip: the scalar loop has none.
template <int V>
[[gnu::target("avx512f")]] void combine_tile(std::span<const NodeId> nb,
                                             NodeId v, const float* alpha,
                                             const float* wh, std::int64_t dh,
                                             std::int64_t c0, float* o,
                                             const ColMasks<V>& cols) {
  __m512 acc[V];
#pragma GCC unroll 8
  for (int q = 0; q < V; ++q)
    acc[q] = _mm512_maskz_loadu_ps(cols.m[q], o + 16 * q);
  for (std::size_t i = 0; i <= nb.size(); ++i) {
    const NodeId u = i < nb.size() ? nb[i] : v;
    const float* s = wh + static_cast<std::int64_t>(u) * dh + c0;
    const __m512 a = _mm512_set1_ps(alpha[i]);
#pragma GCC unroll 8
    for (int q = 0; q < V; ++q)
      acc[q] = _mm512_add_ps(
          acc[q], mul(a, _mm512_maskz_loadu_ps(cols.m[q], s + 16 * q)));
  }
#pragma GCC unroll 8
  for (int q = 0; q < V; ++q)
    _mm512_mask_storeu_ps(o + 16 * q, cols.m[q], acc[q]);
}

/// The GAT combine over every destination row, each row in kGatherCols-
/// wide tiles as in F1.
[[gnu::target("avx512f")]] void combine_rows(const BipartiteCsr& adj,
                                             const float* alpha,
                                             const Matrix& wh,
                                             std::int64_t col0, Matrix& out) {
  const std::int64_t dh = wh.cols();
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto nb = adj.neighbors(v);
    const float* a = alpha + gat_entry_offset(adj, v);
    float* o = out.data() + static_cast<std::int64_t>(v) * out.cols() + col0;
    for (std::int64_t c0 = 0; c0 < dh; c0 += kGatherCols) {
      const std::int64_t width = dh - c0;
      if (width > kGatherCols / 2) {
        combine_tile<kGatherVecs>(nb, v, a, wh.data(), dh, c0, o + c0,
                                  ColMasks<kGatherVecs>(width));
      } else {
        combine_tile<kGatherVecs / 2>(nb, v, a, wh.data(), dh, c0, o + c0,
                                      ColMasks<kGatherVecs / 2>(width));
      }
    }
  }
}

/// The largest of x's 16 lanes, none of them a NaN. (The maskz forms
/// here, as in simd::mul, keep GCC 12 from reading an undefined source.)
[[gnu::target("avx512f")]] inline float reduce_max(__m512 x) {
  constexpr __mmask16 kAll = 0xFFFF;
  x = _mm512_maskz_max_ps(
      kAll, x, _mm512_maskz_shuffle_f32x4(kAll, x, x, _MM_SHUFFLE(1, 0, 3, 2)));
  x = _mm512_maskz_max_ps(
      kAll, x, _mm512_maskz_shuffle_f32x4(kAll, x, x, _MM_SHUFFLE(2, 3, 0, 1)));
  x = _mm512_maskz_max_ps(
      kAll, x, _mm512_maskz_permute_ps(kAll, x, _MM_SHUFFLE(1, 0, 3, 2)));
  x = _mm512_maskz_max_ps(
      kAll, x, _mm512_maskz_permute_ps(kAll, x, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm512_cvtss_f32(x);
}

/// GAT's scores and softmax over every destination row, its entries 16 at
/// a time. Per chunk: gather s_src of the chunk's sources (the row's arcs,
/// then v itself), add s_dst[v], and where e <= 0 select e * slope — the
/// scalar branch as a select, the product rounded (simd::mul) and taken
/// for every lane. The lanes' running maximum is max(e, mx), which returns
/// mx when e is a NaN, so no NaN ever wins, as in std::max(mx, e). The
/// lanes may reduce in any order: the maximum of non-NaN floats is one
/// value, and only the sign of a zero maximum depends on the order, which
/// e - (±0) hands to exp as the same value. The exps and their sum stay in
/// entry order (gat_exp_sum); the scale by 1/sum runs 16 at a time.
[[gnu::target("avx512f")]] void scores_rows(const BipartiteCsr& adj,
                                            const float* s_src,
                                            const float* s_dst,
                                            float leaky_slope, float* alpha,
                                            float* slopes) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 slope = _mm512_set1_ps(leaky_slope);
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto nb = adj.neighbors(v);
    const auto deg = static_cast<std::int64_t>(nb.size());
    const std::int64_t cnt = deg + 1; // + self
    const std::size_t base = gat_entry_offset(adj, v);
    float* a = alpha + base;
    const __m512 dst = _mm512_set1_ps(s_dst[v]);
    __m512 mx = _mm512_set1_ps(-1e30f);
    for (std::int64_t i0 = 0; i0 < cnt; i0 += 16) {
      const std::int64_t arcs = deg - i0; // the self entry is lane `arcs`
      const auto live = static_cast<__mmask16>(
          cnt - i0 >= 16 ? 0xFFFFu : (1u << (cnt - i0)) - 1u);
      __m512i idx = _mm512_maskz_loadu_epi32(
          static_cast<__mmask16>(arcs >= 16 ? 0xFFFFu : (1u << arcs) - 1u),
          nb.data() + i0);
      if (arcs < 16)
        idx = _mm512_mask_set1_epi32(idx, static_cast<__mmask16>(1u << arcs),
                                     v);
      __m512 e = _mm512_add_ps(
          _mm512_mask_i32gather_ps(zero, live, idx, s_src, 4), dst);
      const __mmask16 neg = _mm512_cmp_ps_mask(e, zero, _CMP_LE_OQ);
      e = _mm512_mask_blend_ps(neg, e, mul(e, slope));
      if (slopes != nullptr)
        _mm512_mask_storeu_ps(slopes + base + i0, live,
                              _mm512_mask_blend_ps(neg, one, slope));
      _mm512_mask_storeu_ps(a + i0, live, e);
      mx = _mm512_mask_max_ps(mx, live, e, mx);
    }
    const float inv = 1.0f / gat_exp_sum(a, static_cast<std::size_t>(cnt),
                                         reduce_max(mx));
    const __m512 invv = _mm512_set1_ps(inv);
    for (std::int64_t i0 = 0; i0 < cnt; i0 += 16) {
      const auto live = static_cast<__mmask16>(
          cnt - i0 >= 16 ? 0xFFFFu : (1u << (cnt - i0)) - 1u);
      _mm512_mask_storeu_ps(
          a + i0, live, mul(_mm512_maskz_loadu_ps(live, a + i0), invv));
    }
  }
}

/// F1 over destination rows [v0, v1), one row at a time, each row in
/// kGatherCols-wide tiles.
template <bool kWeighted>
[[gnu::target("avx512f")]] void gather_rows(const BipartiteCsr& adj,
                                            const Matrix& inner_src,
                                            NodeId v0, NodeId v1,
                                            Matrix& out) {
  const NodeId n_lo = static_cast<NodeId>(inner_src.rows());
  const std::int64_t d = inner_src.cols();
  for (NodeId v = v0; v < v1; ++v) {
    const auto begin =
        static_cast<std::size_t>(adj.offsets[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(
        adj.offsets[static_cast<std::size_t>(v) + 1]);
    float* o = out.data() + static_cast<std::int64_t>(v) * d;
    for (std::int64_t c0 = 0; c0 < d; c0 += kGatherCols) {
      const std::int64_t width = d - c0;
      if (width > kGatherCols / 2) {
        gather_tile<kGatherVecs, kWeighted>(adj, begin, end, n_lo,
                                            inner_src.data(), d, c0, o + c0,
                                            ColMasks<kGatherVecs>(width));
      } else {
        gather_tile<kGatherVecs / 2, kWeighted>(
            adj, begin, end, n_lo, inner_src.data(), d, c0, o + c0,
            ColMasks<kGatherVecs / 2>(width));
      }
    }
  }
}

/// One lane [c0, c1) of a backward scatter: for every destination v with
/// w = inv_deg[v] != 0 and each arc e of v whose source u lies in
/// [u_lo, u_hi), in (v, e) order,
///   target[u - u_lo, c] = target[u - u_lo, c] + wu * dout[v, c]
/// with wu = w * edge_scale[e] when kWeighted, else w.
template <bool kWeighted>
[[gnu::target("avx512f")]] void scatter_lane(const BipartiteCsr& adj,
                                             const Matrix& dout,
                                             std::span<const float> inv_deg,
                                             NodeId u_lo, NodeId u_hi,
                                             Matrix& target, std::int64_t c0,
                                             std::int64_t c1) {
  const std::int64_t d = dout.cols();
  const ColMasks<kScatterVecs> cols(c1 - c0);
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const float w = inv_deg[static_cast<std::size_t>(v)];
    if (w == 0.0f) continue;
    const float* g = dout.data() + static_cast<std::int64_t>(v) * d + c0;
    __m512 gv[kScatterVecs];
#pragma GCC unroll 4
    for (int q = 0; q < kScatterVecs; ++q)
      gv[q] = _mm512_maskz_loadu_ps(cols.m[q], g + 16 * q);
    if constexpr (!kWeighted) {
      const __m512 wv = _mm512_set1_ps(w);
#pragma GCC unroll 4
      for (int q = 0; q < kScatterVecs; ++q) gv[q] = mul(wv, gv[q]);
    }
    const auto begin =
        static_cast<std::size_t>(adj.offsets[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(
        adj.offsets[static_cast<std::size_t>(v) + 1]);
    for (std::size_t e = begin; e < end; ++e) {
      const NodeId u = adj.nbrs[e];
      if (u < u_lo || u >= u_hi) continue;
      float* t = target.data() + static_cast<std::int64_t>(u - u_lo) * d + c0;
      const __m512 wu = _mm512_set1_ps(kWeighted ? w * adj.edge_scale[e] : w);
#pragma GCC unroll 4
      for (int q = 0; q < kScatterVecs; ++q) {
        const __m512 tv = _mm512_maskz_loadu_ps(cols.m[q], t + 16 * q);
        _mm512_mask_storeu_ps(
            t + 16 * q, cols.m[q],
            _mm512_add_ps(tv, kWeighted ? mul(wu, gv[q]) : gv[q]));
      }
    }
  }
}

/// B1/B2: the scatter lanes over the feature axis, as in the scalar
/// kernels.
void backward_scatter(const BipartiteCsr& adj, const Matrix& dout,
                      std::span<const float> inv_deg, NodeId u_lo, NodeId u_hi,
                      Matrix& target) {
  const bool weighted = !adj.edge_scale.empty();
  common::for_blocks(dout.cols(), kColBlock,
                     [&](std::int64_t c0, std::int64_t c1) {
                       if (weighted) {
                         scatter_lane<true>(adj, dout, inv_deg, u_lo, u_hi,
                                            target, c0, c1);
                       } else {
                         scatter_lane<false>(adj, dout, inv_deg, u_lo, u_hi,
                                             target, c0, c1);
                       }
                     });
}

/// One lane [c0, c1) of the halo fold: for each slot in order, its slab
/// row stays in registers while every incidence entry adds es * row into
/// its destination row. The multiply stays even where es is 1: the
/// incidence cannot tell whether the adjacency was weighted.
[[gnu::target("avx512f")]] void fold_lane(const HaloIncidence& inc,
                                          std::span<const NodeId> slots,
                                          std::span<const float> rows,
                                          std::int64_t d, Matrix& out,
                                          std::int64_t c0, std::int64_t c1) {
  const ColMasks<kScatterVecs> cols(c1 - c0);
  for (std::size_t t = 0; t < slots.size(); ++t) {
    const NodeId s = slots[t];
    const float* row = rows.data() + t * static_cast<std::size_t>(d) + c0;
    __m512 rv[kScatterVecs];
#pragma GCC unroll 4
    for (int q = 0; q < kScatterVecs; ++q)
      rv[q] = _mm512_maskz_loadu_ps(cols.m[q], row + 16 * q);
    const auto begin =
        static_cast<std::size_t>(inc.offsets[static_cast<std::size_t>(s)]);
    const auto end = static_cast<std::size_t>(
        inc.offsets[static_cast<std::size_t>(s) + 1]);
    for (std::size_t e = begin; e < end; ++e) {
      float* o = out.data() + static_cast<std::int64_t>(inc.dsts[e]) * d + c0;
      const __m512 es = _mm512_set1_ps(inc.scales[e]);
#pragma GCC unroll 4
      for (int q = 0; q < kScatterVecs; ++q) {
        const __m512 ov = _mm512_maskz_loadu_ps(cols.m[q], o + 16 * q);
        _mm512_mask_storeu_ps(o + 16 * q, cols.m[q],
                              _mm512_add_ps(ov, mul(es, rv[q])));
      }
    }
  }
}

} // namespace

void gat_combine_avx512(const BipartiteCsr& adj, std::span<const float> alpha,
                        const Matrix& wh, std::int64_t col0, Matrix& out) {
  combine_rows(adj, alpha.data(), wh, col0, out);
}

void gat_scores_avx512(const BipartiteCsr& adj, std::span<const float> s_src,
                       std::span<const float> s_dst, float leaky_slope,
                       std::span<float> alpha, std::span<float> slopes) {
  scores_rows(adj, s_src.data(), s_dst.data(), leaky_slope, alpha.data(),
              slopes.empty() ? nullptr : slopes.data());
}

void mean_aggregate_inner_rows_avx512(const BipartiteCsr& adj,
                                      const Matrix& inner_src, NodeId row0,
                                      NodeId row1, Matrix& out) {
  const bool weighted = !adj.edge_scale.empty();
  // The scalar kernel's row blocks, anchored at row0.
  common::for_blocks(row1 - row0, kRowBlock, [&](std::int64_t b0,
                                                 std::int64_t b1) {
    const NodeId v0 = row0 + static_cast<NodeId>(b0);
    const NodeId v1 = row0 + static_cast<NodeId>(b1);
    if (weighted) {
      gather_rows<true>(adj, inner_src, v0, v1, out);
    } else {
      gather_rows<false>(adj, inner_src, v0, v1, out);
    }
  });
}

void mean_aggregate_halo_fold_avx512(const HaloIncidence& inc,
                                     std::span<const NodeId> slots,
                                     std::span<const float> rows,
                                     std::int64_t d, Matrix& out) {
  common::for_blocks(d, kColBlock, [&](std::int64_t c0, std::int64_t c1) {
    fold_lane(inc, slots, rows, d, out, c0, c1);
  });
}

void mean_aggregate_backward_halo_avx512(const BipartiteCsr& adj,
                                         const Matrix& dout,
                                         std::span<const float> inv_deg,
                                         NodeId n_lo, Matrix& dhalo) {
  backward_scatter(adj, dout, inv_deg, n_lo, adj.n_src, dhalo);
}

void mean_aggregate_backward_inner_avx512(const BipartiteCsr& adj,
                                          const Matrix& dout,
                                          std::span<const float> inv_deg,
                                          NodeId n_lo, Matrix& dinner) {
  backward_scatter(adj, dout, inv_deg, 0, n_lo, dinner);
}

} // namespace bnsgcn::nn::detail

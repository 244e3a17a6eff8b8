#include "nn/layer.hpp"

#include "common/thread_pool.hpp"

namespace bnsgcn::nn {

namespace {

// Parallel grains, mirroring tensor/ops.cpp. Gather-shaped kernels (one
// writer per destination row) split the row axis; scatter-shaped kernels
// (source rows fan out to repeating destinations) split the feature axis so
// each lane owns disjoint columns while walking entries in the serial
// order. Either way each output element's accumulation order is the scalar
// kernel's — bit-identical for every thread count (common/thread_pool.hpp).
constexpr std::int64_t kRowBlock = 64;
constexpr std::int64_t kColBlock = 64;

} // namespace

void BipartiteCsr::validate() const {
  BNSGCN_CHECK(static_cast<NodeId>(offsets.size()) == n_dst + 1);
  BNSGCN_CHECK(offsets.front() == 0);
  BNSGCN_CHECK(offsets.back() == static_cast<EdgeId>(nbrs.size()));
  for (const NodeId u : nbrs) BNSGCN_CHECK(u >= 0 && u < n_src);
  for (std::size_t i = 1; i < offsets.size(); ++i)
    BNSGCN_CHECK(offsets[i - 1] <= offsets[i]);
  BNSGCN_CHECK(edge_scale.empty() || edge_scale.size() == nbrs.size());
}

void mean_aggregate(const BipartiteCsr& adj, const Matrix& src,
                    std::span<const float> inv_deg, Matrix& out) {
  BNSGCN_CHECK(src.rows() == adj.n_src);
  BNSGCN_CHECK(static_cast<NodeId>(inv_deg.size()) == adj.n_dst);
  const std::int64_t d = src.cols();
  out.resize(adj.n_dst, d);
  const bool weighted = !adj.edge_scale.empty();
  common::for_blocks(adj.n_dst, kRowBlock, [&](std::int64_t v0,
                                               std::int64_t v1) {
    for (NodeId v = static_cast<NodeId>(v0); v < static_cast<NodeId>(v1);
         ++v) {
      float* o = out.data() + static_cast<std::int64_t>(v) * d;
      const float w = inv_deg[static_cast<std::size_t>(v)];
      if (w == 0.0f) continue;
      const auto begin = static_cast<std::size_t>(
          adj.offsets[static_cast<std::size_t>(v)]);
      const auto end = static_cast<std::size_t>(
          adj.offsets[static_cast<std::size_t>(v) + 1]);
      for (std::size_t e = begin; e < end; ++e) {
        const NodeId u = adj.nbrs[e];
        const float es = weighted ? adj.edge_scale[e] : 1.0f;
        const float* s = src.data() + static_cast<std::int64_t>(u) * d;
        for (std::int64_t c = 0; c < d; ++c) o[c] += es * s[c];
      }
      for (std::int64_t c = 0; c < d; ++c) o[c] *= w;
    }
  });
}

void mean_aggregate_backward(const BipartiteCsr& adj, const Matrix& dout,
                             std::span<const float> inv_deg, Matrix& dsrc) {
  BNSGCN_CHECK(dout.rows() == adj.n_dst);
  BNSGCN_CHECK(dsrc.rows() == adj.n_src && dsrc.cols() == dout.cols());
  const std::int64_t d = dout.cols();
  const bool weighted = !adj.edge_scale.empty();
  // Scatter into dsrc: the same source row u appears under many v, so lanes
  // own disjoint column ranges and replay the full v/e walk.
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
        const float wu = weighted ? w * adj.edge_scale[e] : w;
        float* t = dsrc.data() + static_cast<std::int64_t>(u) * d;
        for (std::int64_t c = c0; c < c1; ++c) t[c] += wu * g[c];
      }
    }
  });
}

void mean_aggregate_inner_rows(const BipartiteCsr& adj,
                               const Matrix& inner_src, NodeId row0,
                               NodeId row1, Matrix& out) {
  const NodeId n_lo = static_cast<NodeId>(inner_src.rows());
  BNSGCN_CHECK(n_lo <= adj.n_src);
  BNSGCN_CHECK(row0 >= 0 && row0 <= row1 && row1 <= adj.n_dst);
  BNSGCN_CHECK(out.rows() == adj.n_dst && out.cols() == inner_src.cols());
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

void mean_aggregate_finish(std::span<const float> inv_deg, Matrix& out) {
  BNSGCN_CHECK(static_cast<NodeId>(inv_deg.size()) == out.rows());
  const std::int64_t d = out.cols();
  common::for_blocks(out.rows(), kRowBlock, [&](std::int64_t v0,
                                                std::int64_t v1) {
    for (NodeId v = static_cast<NodeId>(v0); v < static_cast<NodeId>(v1);
         ++v) {
      float* o = out.data() + static_cast<std::int64_t>(v) * d;
      const float w = inv_deg[static_cast<std::size_t>(v)];
      if (w == 0.0f) { // mean_aggregate leaves such rows zero; match it
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

void mean_aggregate_backward_inner(const BipartiteCsr& adj, const Matrix& dout,
                                   std::span<const float> inv_deg, NodeId n_lo,
                                   Matrix& dinner) {
  BNSGCN_CHECK(dout.rows() == adj.n_dst);
  BNSGCN_CHECK(dinner.rows() == n_lo && dinner.cols() == dout.cols());
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

void Layer::backward_params(const BipartiteCsr&) {
  // Default: nothing deferred — a phased layer that accumulates its
  // parameter gradients inside backward_inner stays correct.
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

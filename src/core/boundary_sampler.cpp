#include "core/boundary_sampler.hpp"

#include <algorithm>

namespace bnsgcn::core {

namespace {

float inv_rate_or_one(const BoundarySampler::Options& opts) {
  return (opts.unbiased_scaling && opts.rate > 0.0f) ? 1.0f / opts.rate
                                                     : 1.0f;
}

} // namespace

EpochDraw draw_epoch(const LocalGraph& lg,
                     const BoundarySampler::Options& opts, Rng& rng) {
  EpochDraw d;
  if (opts.variant == SamplingVariant::kBns) {
    // Algorithm 1 line 4: keep each boundary node with probability p.
    d.halo_kept.resize(static_cast<std::size_t>(lg.n_halo()));
    for (char& kept : d.halo_kept) kept = rng.next_bool(opts.rate) ? 1 : 0;
    d.halo_scale = inv_rate_or_one(opts);
    return d;
  }
  // The edge draws visit arcs in adjacency order, one Bernoulli per arc
  // they may drop: boundary arcs only for BES (Section 4.3), every arc for
  // DropEdge. A halo node survives iff one of its arcs does.
  const bool inner_too = opts.variant == SamplingVariant::kDropEdge;
  BNSGCN_CHECK(inner_too || opts.variant == SamplingVariant::kBoundaryEdge);
  d.halo_kept.assign(static_cast<std::size_t>(lg.n_halo()), 0);
  d.edge_kept.emplace(lg.adj.nbrs.size(), 1);
  for (std::size_t e = 0; e < lg.adj.nbrs.size(); ++e) {
    const NodeId u = lg.adj.nbrs[e];
    const bool halo = u >= lg.n_inner();
    if (!halo && !inner_too) continue; // BES leaves inner arcs untouched
    if (!rng.next_bool(opts.rate)) {
      (*d.edge_kept)[e] = 0;
    } else if (halo) {
      d.halo_kept[static_cast<std::size_t>(u - lg.n_inner())] = 1;
    }
  }
  d.halo_edge_scale = inv_rate_or_one(opts);
  if (inner_too) d.inner_edge_scale = d.halo_edge_scale;
  return d;
}

BoundarySampler::BoundarySampler(const LocalGraph& lg, const Options& opts)
    : lg_(lg), opts_(opts), rng_(opts.seed) {
  // An out-of-range rate would break the draw's Bernoulli trials and its
  // 1/rate scaling.
  BNSGCN_CHECK(opts.rate >= 0.0f && opts.rate <= 1.0f);
}

EpochPlan BoundarySampler::plan_from_draw(const EpochDraw& draw) {
  const NodeId n_in = lg_.n_inner();
  const NodeId n_halo = lg_.n_halo();
  const std::vector<char>& halo_kept = draw.halo_kept;
  const std::vector<char>* edge_kept =
      draw.edge_kept ? &*draw.edge_kept : nullptr;
  BNSGCN_CHECK(halo_kept.size() == static_cast<std::size_t>(n_halo));
  BNSGCN_CHECK(edge_kept == nullptr ||
               edge_kept->size() == lg_.adj.nbrs.size());

  EpochPlan plan;
  plan.halo_scale = draw.halo_scale;
  // Compact halo ids: kept halo nodes keep their relative order.
  std::vector<NodeId> compact(static_cast<std::size_t>(n_halo), -1);
  NodeId next = 0;
  for (NodeId h = 0; h < n_halo; ++h) {
    if (halo_kept[static_cast<std::size_t>(h)]) {
      compact[static_cast<std::size_t>(h)] = next++;
      plan.kept_halo_idx.push_back(h);
    }
  }
  plan.n_kept_halo = next;

  // Compacted adjacency. Edge scaling (1/q) applies only to strategies
  // that drop arcs; BNS scales whole received feature rows instead.
  nn::BipartiteCsr& adj = plan.adj;
  adj.n_dst = n_in;
  adj.n_src = n_in + plan.n_kept_halo;
  adj.offsets.assign(static_cast<std::size_t>(n_in) + 1, 0);
  adj.nbrs.reserve(lg_.adj.nbrs.size());
  const bool want_scale_vec = edge_kept != nullptr;
  if (want_scale_vec) adj.edge_scale.reserve(lg_.adj.nbrs.size());

  for (NodeId v = 0; v < n_in; ++v) {
    const auto begin = static_cast<std::size_t>(
        lg_.adj.offsets[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(
        lg_.adj.offsets[static_cast<std::size_t>(v) + 1]);
    for (std::size_t e = begin; e < end; ++e) {
      const NodeId u = lg_.adj.nbrs[e];
      if (edge_kept != nullptr && !(*edge_kept)[e]) continue; // dropped edge
      if (u < n_in) {
        adj.nbrs.push_back(u);
        if (want_scale_vec) adj.edge_scale.push_back(draw.inner_edge_scale);
      } else {
        const NodeId slot = compact[static_cast<std::size_t>(u - n_in)];
        if (slot < 0) continue; // dropped halo node
        adj.nbrs.push_back(n_in + slot);
        if (want_scale_vec) adj.edge_scale.push_back(draw.halo_edge_scale);
      }
    }
    adj.offsets[static_cast<std::size_t>(v) + 1] =
        static_cast<EdgeId>(adj.nbrs.size());
  }
  plan.dropped_edges =
      static_cast<EdgeId>(lg_.adj.nbrs.size() - adj.nbrs.size());
  // A draw that keeps every arc keeps the inner block as it was, unweighted
  // (only halo ids are compacted); one that drops arcs may break the
  // symmetry and weights what it keeps.
  adj.inner_symmetric = lg_.adj.inner_symmetric && edge_kept == nullptr;

  // Per-peer send/recv lists are filled by sample_epoch (they need the
  // negotiated kept positions); full_plan fills them structurally.
  plan.send_rows.resize(static_cast<std::size_t>(lg_.nparts));
  plan.recv_slots.resize(static_cast<std::size_t>(lg_.nparts));
  plan.send_pos.resize(static_cast<std::size_t>(lg_.nparts));
  plan.recv_pos.resize(static_cast<std::size_t>(lg_.nparts));
  for (PartId j = 0; j < lg_.nparts; ++j) {
    const auto& structural = lg_.recv_halo[static_cast<std::size_t>(j)];
    for (std::size_t t = 0; t < structural.size(); ++t) {
      const NodeId slot = compact[static_cast<std::size_t>(structural[t])];
      if (slot >= 0) {
        plan.recv_slots[static_cast<std::size_t>(j)].push_back(slot);
        plan.recv_pos[static_cast<std::size_t>(j)].push_back(
            static_cast<NodeId>(t));
      }
    }
  }
  return plan;
}

EpochPlan BoundarySampler::sample_epoch(comm::Endpoint& ep, int tag) {
  const EpochDraw draw = draw_epoch(lg_, opts_, rng_);
  EpochPlan plan = plan_from_draw(draw);

  // Algorithm 1 lines 6-7: tell each owner which of its rows we kept.
  // Both sides order the structural halo list identically (sorted by global
  // id), so positions index straight into the owner's send set.
  for (PartId j = 0; j < lg_.nparts; ++j) {
    const auto& structural = lg_.recv_halo[static_cast<std::size_t>(j)];
    if (structural.empty()) continue;
    std::vector<NodeId> kept_positions;
    kept_positions.reserve(structural.size());
    for (std::size_t t = 0; t < structural.size(); ++t) {
      if (draw.halo_kept[static_cast<std::size_t>(structural[t])])
        kept_positions.push_back(static_cast<NodeId>(t));
    }
    ep.send_ids(j, tag, std::move(kept_positions),
                comm::TrafficClass::kControl);
  }
  for (PartId j = 0; j < lg_.nparts; ++j) {
    const auto& our_rows = lg_.send_sets[static_cast<std::size_t>(j)];
    if (our_rows.empty()) continue;
    auto positions = ep.recv_ids(j, tag, comm::TrafficClass::kControl);
    auto& rows = plan.send_rows[static_cast<std::size_t>(j)];
    rows.reserve(positions.size());
    for (const NodeId t : positions) {
      BNSGCN_CHECK(t >= 0 &&
                   t < static_cast<NodeId>(our_rows.size()));
      rows.push_back(our_rows[static_cast<std::size_t>(t)]);
    }
    // The negotiated positions double as the sender-side cache key
    // (EpochPlan::send_pos) — identical to the receiver's recv_pos for
    // this pair, which is what keeps the two directories in lockstep.
    plan.send_pos[static_cast<std::size_t>(j)] = std::move(positions);
  }
  return plan;
}

EpochPlan BoundarySampler::empty_plan() {
  EpochDraw none;
  none.halo_kept.assign(static_cast<std::size_t>(lg_.n_halo()), 0);
  return plan_from_draw(none);
}

EpochPlan BoundarySampler::full_plan() const {
  EpochPlan plan;
  plan.adj = lg_.adj;
  plan.n_kept_halo = lg_.n_halo();
  plan.kept_halo_idx.resize(static_cast<std::size_t>(lg_.n_halo()));
  for (NodeId h = 0; h < lg_.n_halo(); ++h)
    plan.kept_halo_idx[static_cast<std::size_t>(h)] = h;
  plan.halo_scale = 1.0f;
  plan.send_rows = lg_.send_sets;
  plan.recv_slots = lg_.recv_halo; // slot == halo index when nothing dropped
  // Nothing dropped → every structural position is kept, in order.
  plan.send_pos.resize(static_cast<std::size_t>(lg_.nparts));
  plan.recv_pos.resize(static_cast<std::size_t>(lg_.nparts));
  for (PartId j = 0; j < lg_.nparts; ++j) {
    auto& sp = plan.send_pos[static_cast<std::size_t>(j)];
    sp.resize(lg_.send_sets[static_cast<std::size_t>(j)].size());
    for (std::size_t t = 0; t < sp.size(); ++t)
      sp[t] = static_cast<NodeId>(t);
    auto& rp = plan.recv_pos[static_cast<std::size_t>(j)];
    rp.resize(lg_.recv_halo[static_cast<std::size_t>(j)].size());
    for (std::size_t t = 0; t < rp.size(); ++t)
      rp[t] = static_cast<NodeId>(t);
  }
  plan.dropped_edges = 0;
  return plan;
}

} // namespace bnsgcn::core

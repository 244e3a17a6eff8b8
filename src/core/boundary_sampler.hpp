#pragma once

#include <optional>
#include <vector>

#include "comm/fabric.hpp"
#include "common/fields.hpp"
#include "core/local_graph.hpp"

namespace bnsgcn::core {

/// Which random subgraph is drawn each epoch (Section 3.2 / Section 4.3).
enum class SamplingVariant {
  kBns,          // the paper's method: drop boundary *nodes* w.p. 1-p
  kBoundaryEdge, // BES ablation: drop boundary *edges* w.p. 1-q (Table 9)
  kDropEdge,     // DropEdge ablation: drop *any* edge w.p. 1-q (Table 9)
};

constexpr auto enum_names(SamplingVariant) {
  using enum SamplingVariant;
  return EnumNames<SamplingVariant, 3>{
      "sampling variant",
      {{kBns, "bns"}, {kBoundaryEdge, "boundary-edge"},
       {kDropEdge, "drop-edge"}}};
}

/// One epoch's random draw over a rank's local graph: which halo nodes (and
/// optionally which arcs) survive, plus the unbiased-estimator scales the
/// compaction must apply. The draw only — the exchange negotiation and CSR
/// compaction live in BoundarySampler.
struct EpochDraw {
  std::vector<char> halo_kept;                // size n_halo, 0/1
  /// Arc-level keep mask over the local adjacency (same indexing as
  /// LocalGraph::adj.nbrs). Disengaged for the node-level draw (kBns),
  /// which also lets the compaction skip building a per-edge scale vector.
  std::optional<std::vector<char>> edge_kept;
  float halo_scale = 1.0f;       // applied to received halo feature rows
  float halo_edge_scale = 1.0f;  // edge_scale of surviving halo arcs
  float inner_edge_scale = 1.0f; // edge_scale of surviving inner arcs
};

/// One epoch's sampled exchange plan (Algorithm 1 lines 4-7 materialized):
/// the compacted local adjacency plus, per peer, which inner rows to send
/// and which compact halo slots the received rows land in.
struct EpochPlan {
  nn::BipartiteCsr adj;      // n_src = n_inner + n_kept_halo (compacted)
  NodeId n_kept_halo = 0;
  /// Original halo index of each compact slot (monotone; inspection/tests).
  std::vector<NodeId> kept_halo_idx;
  float halo_scale = 1.0f;   // 1/p applied to received features (BNS only)
  std::vector<std::vector<NodeId>> send_rows;  // per peer: inner local rows
  std::vector<std::vector<NodeId>> recv_slots; // per peer: halo slot in
                                               // [0, n_kept_halo), ordered to
                                               // match the sender's rows
  /// Structural positions backing send_rows / recv_slots: element t of
  /// send_pos[j] is the index into LocalGraph::send_sets[j] whose row is
  /// send_rows[j][t] (and symmetrically recv_pos[j] indexes recv_halo[j]).
  /// Both sides sort their structural lists by global id, so position t
  /// names the SAME node on the sender and the receiver — the stable,
  /// epoch-invariant key the halo cache directories are stepped with
  /// (core/halo_cache.hpp). Already negotiated by sample_epoch's kControl
  /// exchange; recording it here adds zero traffic.
  std::vector<std::vector<NodeId>> send_pos;
  std::vector<std::vector<NodeId>> recv_pos;
  /// Dropped (arc) count vs the full local graph — reporting for Table 9.
  EdgeId dropped_edges = 0;
};

/// Per-rank boundary sampler: each epoch's random draw (draw_epoch), its
/// CSR compaction and the cross-rank index negotiation. `sample_epoch` is
/// a collective: every rank must call it in the same epoch order because
/// the kept-index lists are exchanged through the fabric (Algorithm 1
/// line 6).
class BoundarySampler {
 public:
  struct Options {
    SamplingVariant variant = SamplingVariant::kBns;
    float rate = 1.0f;           // p (kBns) or edge keep-rate q (others)
    bool unbiased_scaling = true;// scale kept contributions by 1/rate
    std::uint64_t seed = 1;      // split per rank by the caller
  };

  /// Throws CheckError unless opts.rate lies in [0, 1].
  BoundarySampler(const LocalGraph& lg, const Options& opts);

  /// Draw this epoch's plan and negotiate send/recv lists with all peers.
  /// `tag` must be identical across ranks for the same epoch and unique
  /// across exchanges (the trainer's phase counter).
  [[nodiscard]] EpochPlan sample_epoch(comm::Endpoint& ep, int tag);

  /// Unsampled plan (p=1): used for evaluation and as the fast path.
  /// Needs no negotiation, which is why vanilla partition parallelism has
  /// zero sampling overhead (Table 12, p=1 row).
  [[nodiscard]] EpochPlan full_plan() const;

  /// Fully isolated plan (p=0): every boundary node dropped, no exchange.
  [[nodiscard]] EpochPlan empty_plan();

  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  [[nodiscard]] EpochPlan plan_from_draw(const EpochDraw& draw);

  const LocalGraph& lg_;
  Options opts_;
  Rng rng_;
};

/// One epoch's draw for `opts.variant` at rate `opts.rate` (`opts.seed` is
/// unused: `rng` carries the stream). A pure function of (lg, rng) that
/// never touches the fabric:
///  - kBns keeps each halo node w.p. p, and scales received rows by 1/p;
///  - kBoundaryEdge keeps each boundary arc w.p. q, and a halo node iff
///    one of its arcs survives; surviving halo arcs scale by 1/q;
///  - kDropEdge keeps every arc, inner ones too, w.p. q, scaled by 1/q.
/// The scales apply only with opts.unbiased_scaling.
[[nodiscard]] EpochDraw draw_epoch(const LocalGraph& lg,
                                   const BoundarySampler::Options& opts,
                                   Rng& rng);

} // namespace bnsgcn::core

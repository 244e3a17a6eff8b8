#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "tensor/matrix.hpp"

namespace bnsgcn::nn {

/// Adjacency from `n_src` source rows to `n_dst` destination rows.
///
/// In partition-parallel training, destinations are a partition's inner
/// nodes (local ids [0, n_dst)) and sources are inner nodes followed by the
/// (sampled) halo (ids [n_dst, n_src)). Minibatch trainers use it for their
/// layered blocks as well.
struct BipartiteCsr {
  NodeId n_dst = 0;
  NodeId n_src = 0;
  std::vector<EdgeId> offsets; // size n_dst + 1
  std::vector<NodeId> nbrs;    // values in [0, n_src)
  /// Optional per-edge multiplier (same indexing as nbrs). Used by the
  /// edge-sampling baselines (DropEdge / BES, Table 9) to keep the mean
  /// estimator unbiased: kept edges carry weight 1/keep_rate. Empty = all 1.
  std::vector<float> edge_scale;

  [[nodiscard]] EdgeId num_edges() const {
    return offsets.empty() ? 0 : offsets.back();
  }
  [[nodiscard]] NodeId degree(NodeId dst) const {
    return static_cast<NodeId>(offsets[static_cast<std::size_t>(dst) + 1] -
                               offsets[static_cast<std::size_t>(dst)]);
  }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId dst) const {
    return {nbrs.data() + offsets[static_cast<std::size_t>(dst)],
            static_cast<std::size_t>(degree(dst))};
  }
  void validate() const;
};

/// Mean neighbor aggregation (Eq. 1 with a mean aggregator):
///   out[v,:] = inv_deg[v] * sum_{u in adj(v)} src[u,:]
/// `inv_deg` is supplied by the caller because under boundary-node sampling
/// the normalizer stays 1/full_degree — the kept halo rows carry the 1/p
/// rescale instead, which keeps the mean unbiased — and the adjacency alone
/// cannot know the full degree. `out` is resized and zero-filled, then
/// built from the split-phase kernels below: F1 over every row with every
/// source local, then the finish pass. Each row therefore sums its terms
/// in adjacency order and scales once; rows with inv_deg == 0 are zero.
void mean_aggregate(const BipartiteCsr& adj, const Matrix& src,
                    std::span<const float> inv_deg, Matrix& out);

// ---------------------------------------------------------------------------
// Split-phase aggregation, for communication–computation overlap.
//
// The source block of a partition-parallel layer is [inner; halo]: rows
// below `n_lo` are locally owned, rows at and above it arrive over the
// fabric. The *_inner pass consumes only local sources and can therefore
// run while the halo rows are still in flight — in row chunks, so folds
// can interleave mid-pass; the halo folds accumulate into a buffer of
// their own, and the finish pass combines and normalizes:
//   finish == inv_deg ⊙ (sum_inner + sum_halo)
// Per destination row the summation order is: inner terms (adjacency
// order), then the halo sum (accumulated in (peer, slot, incidence)
// order) added as one term — independent of chunking and of *when* folds
// land relative to chunks, which is what keeps every schedule and every
// chunk size bit-identical. Relative to mean_aggregate, whose rows take
// inner and halo terms interleaved in adjacency order, this reassociates
// the per-row sum (fp32 drift only). The two backward halves scatter into
// disjoint targets, each receiving its contributions in (dst, edge) order.
//
// F1, F2a, B1 and B2 each run one of two kernels (nn/aggregate_kernels.hpp),
// picked once per process: an AVX-512F kernel when the host has it, the
// scalar loop otherwise. F1's vector kernel keeps a destination row in
// registers across its arcs; the scatters keep their source row there.
// Both give every output element the same operations in the same order,
// so results are bit-identical on any host (docs/ARCHITECTURE.md §6,
// "ISA dispatch").
// ---------------------------------------------------------------------------

/// Phase 1, row-chunked: out[v,:] = sum over neighbors u <
/// inner_src.rows() of edge_scale * inner_src[u,:] (unnormalized), for
/// destinations [row0, row1) only, accumulated into a pre-sized, caller-
/// zeroed `out`. Per-row work is independent, so any chunking of
/// [0, n_dst) into ranges produces the bit-identical matrix — which is
/// what lets the trainer interleave RequestSet polls between chunks
/// without perturbing the fp schedule.
void mean_aggregate_inner_rows(const BipartiteCsr& adj,
                               const Matrix& inner_src, NodeId row0,
                               NodeId row1, Matrix& out);

/// Reverse incidence of the halo sources of a compacted adjacency: for
/// each halo slot s (source id n_lo + s), the (dst, edge_scale) entries
/// that reference it. This is what lets a consumer fold one peer's
/// received rows into the destination aggregate the moment the slab lands
/// (streaming fold) instead of waiting for the assembled halo block.
/// Built in O(n_dst + edges); entries of one slot keep adjacency order.
struct HaloIncidence {
  NodeId n_lo = 0;     // first halo source id; slots index from here
  NodeId n_halo = 0;   // number of halo slots
  std::vector<EdgeId> offsets;  // size n_halo + 1
  std::vector<NodeId> dsts;     // destination row of each entry
  std::vector<float> scales;    // edge_scale of each entry (1 when unweighted)

  void build(const BipartiteCsr& adj, NodeId n_lo);
};

/// Phase 2a (streaming fold): out[dst,:] += es * rows[t,:] for every
/// incidence entry of slot slots[t]. `rows` is one peer's halo slab
/// (slots.size() rows of width d, row-major, already 1/p-scaled by the
/// caller). Folding peers in a fixed order makes the per-destination
/// summation order deterministic: inner terms first
/// (mean_aggregate_inner_rows, adjacency order), then halo terms in
/// (peer, slot, incidence) order — identical across blocking, bulk and
/// stream schedules.
void mean_aggregate_halo_fold(const HaloIncidence& inc,
                              std::span<const NodeId> slots,
                              std::span<const float> rows, std::int64_t d,
                              Matrix& out);

/// Phase 2b: the mean normalization, applied once every fold landed:
/// out[v,:] *= inv_deg[v], with inv_deg == 0 rows forced to zero (the mean
/// of an isolated destination). Scalar only: it is one multiply per
/// element, which the compiler already vectorizes.
void mean_aggregate_finish(std::span<const float> inv_deg, Matrix& out);

/// Halo half of the backward scatter: dhalo[u - n_lo,:] += w * dout[v,:]
/// for sources u >= n_lo. dhalo must be pre-sized to (n_src - n_lo, d).
void mean_aggregate_backward_halo(const BipartiteCsr& adj, const Matrix& dout,
                                  std::span<const float> inv_deg, NodeId n_lo,
                                  Matrix& dhalo);

/// Inner half of the backward scatter: dinner[u,:] += w * dout[v,:] for
/// sources u < n_lo. dinner must be pre-sized to (n_lo, d).
void mean_aggregate_backward_inner(const BipartiteCsr& adj, const Matrix& dout,
                                   std::span<const float> inv_deg, NodeId n_lo,
                                   Matrix& dinner);

/// Checked-build monitor of the split-phase protocol documented on Layer
/// below. Each phased layer owns one and reports its phase entries; in
/// release builds every method is an early return the optimizer deletes.
/// Beyond the begin→chunk/fold→finish→backward ordering it also enforces
/// the chunk contract: disjoint ascending ranges covering exactly
/// [0, n_dst) by finish time. forward_inner_begin is accepted from the
/// post-finish state because evaluation and serving forwards run no
/// backward.
class PhaseChecker {
 public:
  void on_forward_begin(NodeId n_dst) {
    if constexpr (!kCheckedBuild) return;
    BNSGCN_REQUIRE(state_ == State::kIdle || state_ == State::kFwdDone,
                   "forward_inner_begin out of order");
    BNSGCN_REQUIRE(n_dst >= 0, "negative destination count");
    state_ = State::kFwdInner;
    n_dst_ = n_dst;
    next_row_ = 0;
  }
  void on_forward_chunk([[maybe_unused]] NodeId row0, NodeId row1) {
    if constexpr (!kCheckedBuild) return;
    BNSGCN_REQUIRE(state_ == State::kFwdInner || state_ == State::kFwdHalo,
                   "forward_inner_chunk outside the forward window");
    BNSGCN_REQUIRE(row0 == next_row_,
                   "chunks must cover [0, n_dst) in ascending contiguous "
                   "ranges");
    BNSGCN_REQUIRE(row0 <= row1 && row1 <= n_dst_, "chunk range out of range");
    next_row_ = row1;
  }
  void on_halo_begin() {
    if constexpr (!kCheckedBuild) return;
    BNSGCN_REQUIRE(state_ == State::kFwdInner,
                   "forward_halo_begin must follow forward_inner_begin, once");
    state_ = State::kFwdHalo;
  }
  void on_halo_fold() {
    if constexpr (!kCheckedBuild) return;
    BNSGCN_REQUIRE(state_ == State::kFwdHalo,
                   "forward_halo_fold before forward_halo_begin");
  }
  void on_halo_finish() {
    if constexpr (!kCheckedBuild) return;
    BNSGCN_REQUIRE(state_ == State::kFwdHalo,
                   "forward_halo_finish before forward_halo_begin");
    BNSGCN_REQUIRE(next_row_ == n_dst_,
                   "forward_halo_finish before the chunks covered [0, n_dst)");
    state_ = State::kFwdDone;
  }
  void on_backward_begin() {
    if constexpr (!kCheckedBuild) return;
    BNSGCN_REQUIRE(state_ == State::kFwdDone,
                   "backward_begin without a completed phased forward");
    state_ = State::kBwdBegin;
  }
  void on_backward_halo() {
    if constexpr (!kCheckedBuild) return;
    BNSGCN_REQUIRE(state_ == State::kBwdBegin,
                   "backward_halo must follow backward_begin");
    state_ = State::kBwdHalo;
  }
  void on_backward_inner() {
    if constexpr (!kCheckedBuild) return;
    BNSGCN_REQUIRE(state_ == State::kBwdHalo,
                   "backward_inner must follow backward_halo");
    state_ = State::kBwdInner;
  }
  void on_backward_params() {
    if constexpr (!kCheckedBuild) return;
    BNSGCN_REQUIRE(state_ == State::kBwdBegin || state_ == State::kBwdInner,
                   "backward_params must settle a backward_begin or a "
                   "backward_inner exactly once");
    state_ = State::kIdle;
  }

 private:
  enum class State {
    kIdle, kFwdInner, kFwdHalo, kFwdDone, kBwdBegin, kBwdHalo, kBwdInner
  };
  State state_ = State::kIdle;
  NodeId n_dst_ = 0;
  NodeId next_row_ = 0;
};

/// A GCN layer with manual forward/backward. One instance per rank (weights
/// are replicated and kept in sync by gradient allreduce).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward over an assembled source block, composed from the phases
  /// below: F1 over a copy of the inner rows as one chunk, then rows
  /// [n_dst, n_src) folded as one slab of halo slots 0…n_halo−1. What the
  /// single-process baselines and the CAGNET proxy call; the
  /// partition-parallel paths drive the phases themselves.
  /// feats: (n_src, d_in) — inner rows first, then halo rows.
  /// Returns (n_dst, d_out).
  [[nodiscard]] Matrix forward(const BipartiteCsr& adj, const Matrix& feats,
                               std::span<const float> inv_deg, bool training);

  /// B1, B2 and B3 in order. dout: (n_dst, d_out). Returns dfeats
  /// (n_src, d_in) = [dinner; dhalo] and accumulates the parameter
  /// gradients. A caller that would discard dfeats runs backward_begin and
  /// backward_params instead.
  [[nodiscard]] Matrix backward(const BipartiteCsr& adj, const Matrix& dout,
                                std::span<const float> inv_deg);

  // --- Split-phase protocol (communication–computation overlap) ----------
  // Every layer implements the phase methods below; they are the only
  // forward the partition-parallel paths run (training, evaluation and
  // serving all go through core::HaloExchanger::forward_layer). The
  // forward is split into F1 (halo-independent compute, driven in
  // destination-row chunks) plus an *incremental* halo fold: the
  // exchanger calls forward_inner_begin and forward_halo_begin once, then
  // alternates forward_inner_chunk with forward_halo_fold — folds in
  // fixed peer order, in every schedule — and forward_halo_finish when
  // every chunk ran and every peer folded. A fold may land before, between
  // or after any F1 chunk: implementations must keep the fold target
  // disjoint from the chunk target (SAGE accumulates halo sums in a
  // separate buffer combined at finish; GAT's halo rows are naturally
  // disjoint from its inner rows), so the result is a pure function of
  // (chunk partition of [0, n_dst)) ∪ (peer fold order) — and since chunks
  // are row-independent and the peer order is pinned, bit-identical for
  // every chunk size and every schedule. Streaming mode feeds slabs the
  // moment they land (buffering out-of-order arrivals until their turn),
  // bulk/blocking feed them after a wait_all. Backward splits in four:
  // B0 (backward_begin) the activation backward, B1 (backward_halo) the
  // halo-feature gradients (they must hit the wire), B2 (backward_inner)
  // the inner-gradient block (computed while the remote contributions
  // travel), and B3 (backward_params) the parameter gradients last —
  // nothing reads them before the epoch-end allreduce, so the trainer
  // defers backward_params(l) into layer l−1's exchange window (the
  // cross-layer backward pipeline). Layer 0's input gradients feed
  // nothing, so every trainer runs only B0 and B3 there. The backward
  // fold (scatter-add of peer contributions) lives in the trainer and
  // follows the same fixed-peer-order rule.

  /// Phase F1 setup: cache the locally-owned source block ((n_dst, d_in) —
  /// inner sources of the trainer layout) and size the partial state. No
  /// per-row work happens here; the chunks do it. `inner_feats` must stay
  /// valid until the last forward_inner_chunk returns (implementations
  /// may keep a reference instead of copying).
  virtual void forward_inner_begin(const BipartiteCsr& adj,
                                   const Matrix& inner_feats,
                                   bool training) = 0;

  /// Phase F1 chunk: run the halo-independent compute for destination rows
  /// [row0, row1). The trainer covers [0, n_dst) with disjoint ascending
  /// ranges; between chunks it may poll the completion set and fold peers.
  /// Row-independent by contract, so the chunking never changes results.
  virtual void forward_inner_chunk(const BipartiteCsr& adj, NodeId row0,
                                   NodeId row1) = 0;

  /// Phase F2a: receive the epoch's halo fold state. `inc` is the
  /// slot→dst reverse incidence of `adj`, built by the caller once per
  /// epoch (every layer of an epoch shares one compacted adjacency) and
  /// kept alive until the epoch's last fold. Called once per layer
  /// forward, after forward_inner and before the first fold; part of the
  /// in-flight compute window.
  virtual void forward_halo_begin(const BipartiteCsr& adj,
                                  const HaloIncidence& inc) = 0;

  /// Phase F2b: fold one peer's halo slab — rows.size() == slots.size() *
  /// d_in, row t is halo slot slots[t], already 1/p-scaled by the caller.
  /// Must be called in ascending peer order (deterministic reduction).
  virtual void forward_halo_fold(const BipartiteCsr& adj,
                                 std::span<const NodeId> slots,
                                 std::span<const float> rows) = 0;

  /// Phase F2c: every peer folded — finish the layer ((n_dst, d_out)).
  [[nodiscard]] virtual Matrix forward_halo_finish(
      const BipartiteCsr& adj, std::span<const float> inv_deg) = 0;

  /// Phase B0: the activation backward of dout ((n_dst, d_out)) — for GAT
  /// also the attention backward — cached for the phases below. It is all
  /// backward_params needs, so layer 0 runs B0 and then B3.
  virtual void backward_begin(const BipartiteCsr& adj, const Matrix& dout) = 0;

  /// Phase B1: B0, then the halo-source input gradients
  /// ((n_src - n_dst, d_in)) — everything the backward exchange sends.
  [[nodiscard]] virtual Matrix backward_halo(
      const BipartiteCsr& adj, const Matrix& dout,
      std::span<const float> inv_deg) = 0;

  /// Phase B2: the inner-source input gradients ((n_dst, d_in)), computed
  /// from state cached by B0/B1. Must not touch the parameter gradients —
  /// those belong to backward_params.
  [[nodiscard]] virtual Matrix backward_inner(
      const BipartiteCsr& adj, std::span<const float> inv_deg) = 0;

  /// Phase B3: accumulate the parameter gradients (dW, db, …) from state
  /// cached by B0. Called exactly once per backward, after B0 (layer 0)
  /// or B2, but possibly *late*: the trainer defers layer l's call into
  /// layer l−1's exchange window (and runs the last one after layer 0's
  /// B3), always before the gradient allreduce. Cached state must
  /// therefore survive until the next forward.
  virtual void backward_params(const BipartiteCsr& adj) = 0;

  [[nodiscard]] virtual std::vector<Matrix*> params() = 0;
  [[nodiscard]] virtual std::vector<Matrix*> grads() = 0;
  void zero_grads();

  /// Serving mode (docs/ARCHITECTURE.md §10): forward-only execution. The
  /// forward fp instruction stream is unchanged — outputs stay bit-identical
  /// to a training=false forward — but the layer skips the pure-backward
  /// caches (activation masks, the concat/feature caches backward_params
  /// reads) and releases its gradient buffers. One-way in practice: after
  /// switching, no backward phase may run until the next training forward
  /// rebuilds the caches.
  void set_inference(bool on) {
    inference_ = on;
    if (on) release_training_state();
  }

  [[nodiscard]] std::int64_t d_in() const { return d_in_; }
  [[nodiscard]] std::int64_t d_out() const { return d_out_; }

  /// Total parameter count (for the allreduce buffer).
  [[nodiscard]] std::int64_t num_params();

 protected:
  Layer(std::int64_t d_in, std::int64_t d_out) : d_in_(d_in), d_out_(d_out) {}
  /// Free backward-only state (gradients, masks, backward caches) on entry
  /// to inference mode. Must not touch anything the forward reads.
  virtual void release_training_state() {}
  std::int64_t d_in_;
  std::int64_t d_out_;
  bool inference_ = false;
  /// Phased implementations report each phase entry here (checked builds
  /// verify the protocol; release builds compile the calls away).
  PhaseChecker phase_check_;
};

/// Flatten all gradients of a layer stack into one buffer (the paper's
/// single AllReduce per iteration) and scatter a buffer back into weights.
[[nodiscard]] std::vector<float> flatten_grads(
    const std::vector<std::unique_ptr<Layer>>& layers);
void apply_flat_grads(std::span<const float> flat,
                      const std::vector<std::unique_ptr<Layer>>& layers);

} // namespace bnsgcn::nn

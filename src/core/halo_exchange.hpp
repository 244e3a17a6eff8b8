#pragma once

#include <span>
#include <vector>

#include "comm/fabric.hpp"
#include "common/stopwatch.hpp"
#include "core/boundary_sampler.hpp"
#include "core/halo_cache.hpp"
#include "nn/layer.hpp"
#include "tensor/matrix.hpp"

namespace bnsgcn::core {

/// How the boundary exchanges are scheduled against compute
/// (docs/ARCHITECTURE.md §4). All three modes execute the identical fp
/// schedule — per-peer folds applied in fixed peer order — so results are
/// bit-exact across modes; the knob only moves where the rank waits:
///  - kBlocking: wait for every peer right after posting (no overlap).
///  - kBulk: one wait_all after the halo-independent compute phase; the
///    exchange hides behind that single phase.
///  - kStream: poll the completion set (comm::RequestSet) and fold each
///    peer's slab the moment it — and every earlier peer — has landed, so
///    the fold of peer k also hides the transfer of peers k+1..; this is
///    what shaves the slow-peer tail at large partition counts.
/// Ordered by how much wire time each can hide.
enum class OverlapMode : int { kBlocking = 0, kBulk = 1, kStream = 2 };

constexpr auto enum_names(OverlapMode) {
  using enum OverlapMode;
  return EnumNames<OverlapMode, 3>{
      "overlap mode",
      {{kBlocking, "blocking"}, {kBulk, "bulk"}, {kStream, "stream"}}};
}

/// The boundary-exchange knobs: when and whether the sampled boundary rows
/// cross the wire. Which rows each rank exchanges is the sampler's
/// decision (Algorithm 1); none of these changes a value (the cache only
/// at cache_staleness == 0). BnsTrainer, the ROC proxy and
/// InferenceEngine take one; api::CommSpec extends it with the transport,
/// and JSON carries it in the "comm" object under the field names.
struct ExchangeSpec {
  /// Exchange schedule (docs/ARCHITECTURE.md §4; see OverlapMode). Moves
  /// only the waits, so the effect is EpochBreakdown::overlap_s lowering
  /// the simulated epoch time. SAGE and GAT both run the phased schedule;
  /// methods without a halo exchange (the CAGNET proxy, the minibatch
  /// baselines) take no spec. JSON: "blocking" / "bulk" / "stream", and
  /// the legacy bool (true → bulk) still parses.
  OverlapMode overlap = OverlapMode::kBlocking;

  /// Chunk size (destination rows) of the halo-independent forward phase
  /// F1; 0 = one chunk covering every row. With a positive chunk the
  /// exchanger polls the completion set between chunks, so in stream mode
  /// peer folds interleave mid-F1 instead of queueing until F1 returns.
  /// F1 is row-independent and the fold targets are disjoint from the
  /// chunk targets (see nn::Layer), so only the poll points move.
  NodeId inner_chunk_rows = 0;

  /// Halo cache (core/halo_cache.hpp, docs/ARCHITECTURE.md §9): per (peer,
  /// layer, direction) row budget in MiB; 0 disables it. Layer-0 input
  /// features — epoch-invariant — are sent once and then referenced by
  /// index; frequency-ordered eviction keeps the hot rows resident.
  /// Written to JSON only when nonzero.
  std::int64_t cache_mb = 0;

  /// Staleness bound (epochs) for caching the layers above 0, whose rows
  /// change every epoch: a hit replays a row up to this many epochs old.
  /// 0 = exact, only layer 0 caches. Ignored unless cache_mb > 0; written
  /// to JSON when either cache knob is nonzero.
  int cache_staleness = 0;
};

/// ExchangeSpec's field table. The reader walks it; the writer
/// (api/serialize.cpp) adds the cache knobs' own write rule above.
inline constexpr auto kExchangeSpecFields =
    std::tuple{field("overlap", &ExchangeSpec::overlap),
               field("inner_chunk_rows", &ExchangeSpec::inner_chunk_rows),
               field("cache_mb", &ExchangeSpec::cache_mb),
               field("cache_staleness", &ExchangeSpec::cache_staleness)};

/// Throws CheckError naming the first field no engine can run: a negative
/// inner_chunk_rows, cache_mb or cache_staleness, or a cache_mb whose byte
/// count overflows int64. BnsTrainer and InferenceEngine call it in their
/// constructors, before any rank starts.
void validate_exchange_spec(const ExchangeSpec& xs);

// ---- Pipelined (split-phase) exchange -------------------------------------
// One in-flight boundary exchange: sends are handed to the fabric when it
// is posted (eager), receives go into a completion set; the caller computes
// the halo-independent phase and folds the payloads afterwards. The fold
// always applies peers in ascending index order (deterministic reduction):
// blocking waits for everything right after posting, bulk waits at fold
// time, stream polls the set and applies each peer the moment it and every
// earlier peer have landed — the fold itself sits at the same point of the
// schedule with the same order in every mode, so all three execute the
// identical fp instruction stream.
//
// Every forward pass — a training epoch, an evaluation, a serve request
// batch — runs its layers through one routine, HaloExchanger::forward_layer;
// sharing it is what makes served logits bit-identical to a training-path
// forward of the same weights (docs/ARCHITECTURE.md §10). The backward half
// is training-only.

struct PendingExchange {
  std::vector<PartId> peers;         // peer of recvs.at(k)
  comm::RequestSet recvs;
  double sim_s = 0.0;   // simulated wire time of the whole exchange
  double tail_s = 0.0;  // slowest single recv-peer message (sim)
  // Halo-cache state of this exchange: when `layer` names a cached
  // channel, cache_steps[k] is peer k's recv-side classification (fixed
  // at post time, so it is independent of arrival order — the
  // determinism anchor of the whole cache).
  int layer = -1;
  bool cached = false;
  std::vector<CacheStep> cache_steps;
  // Measured-timing capture (socket fabrics; also tracked on the mailbox
  // where it is simply unused). The Stopwatch starts when the exchange is
  // posted; the FoldDriver freezes the span at the last receive completion.
  Stopwatch clock;
  double meas_span_s = 0.0;  // post -> last receive completion
  double wait_s = 0.0;       // portion of the span spent blocked in waits
};

/// Accounting record of one completed exchange — what the trainer folds
/// into EpochBreakdown (docs/ARCHITECTURE.md §4 "Accounting"). The
/// simulated view reads sim_s/tail_s/window_s, the measured view (socket
/// fabrics) span_s/wait_s.
struct ExchangeRecord {
  double sim_s = 0.0;    // simulated wire time of the whole exchange
  double tail_s = 0.0;   // slowest single recv-peer message (simulated)
  double window_s = 0.0; // measured compute run while it was in flight
  double span_s = 0.0;   // measured post -> last receive completion
  double wait_s = 0.0;   // share of span_s spent blocked in waits
};

// ---- Streaming fold engine ------------------------------------------------
// The heart of OverlapMode::kStream: make progress on the completion set
// and hand each peer's slab to the layer (or the scatter-add) the moment
// it AND every lower-indexed peer have landed. Buffer-then-apply-in-order
// is what keeps the reduction deterministic: out-of-order arrivals sit
// completed in their Request slot (the wire buffer — see comm::Request)
// until their turn, so the numeric fold order is identical to a bulk
// wait_all, while the fold *work* of early peers overlaps the transfers
// still in flight. poll() is the nonblocking pass run between F1 chunks
// (folds interleave mid-F1); drain() completes the remainder with
// wait_any progress. In blocking mode the constructor waits for every
// peer, so it must be built right after posting.
//
// Accounting follows the schedule, not the in-process mailboxes (whose
// eager delivery reflects thread-scheduling skew, not wire time — the
// same convention PR 2 used for the bulk window): under the simulated
// wire, the fold of peer k runs while the transfers of peers k+1.. are
// still on the wire, so every fold except the last peer's widens the
// overlap window. record() adds that fold window to the caller's
// halo-independent compute — and reports no window at all in blocking
// mode, where nothing is in flight while the rank computes.

class FoldDriver {
 public:
  FoldDriver(PendingExchange& px, OverlapMode mode)
      : px_(px), mode_(mode),
        arrived_(px.recvs.size(), mode == OverlapMode::kStream ? 0 : 1) {
    if (mode_ == OverlapMode::kBlocking) wait_all();
  }

  /// Nonblocking progress pass: mark what landed, apply every ready
  /// in-order peer through `apply(k, payload)`. No-op outside stream
  /// mode (bulk/blocking apply only at drain time).
  template <typename ApplyFn>
  void poll(ApplyFn&& apply, Accumulator& compute_acc) {
    if (mode_ != OverlapMode::kStream || next_ >= arrived_.size()) return;
    ready_.clear();
    (void)px_.recvs.poll(ready_);
    for (const std::size_t i : ready_) arrived_[i] = 1;
    freeze_span();
    apply_ready(apply, compute_acc);
  }

  /// Block until every peer has been applied.
  template <typename ApplyFn>
  void drain(ApplyFn&& apply, Accumulator& compute_acc) {
    if (mode_ != OverlapMode::kStream) wait_all();
    apply_ready(apply, compute_acc);
    while (next_ < arrived_.size()) {
      ready_.clear();
      Stopwatch w;
      (void)px_.recvs.wait_any(ready_);
      px_.wait_s += w.elapsed_s();
      for (const std::size_t i : ready_) arrived_[i] = 1;
      freeze_span();
      apply_ready(apply, compute_acc);
    }
    freeze_span();
  }

  /// The drained exchange's record; `compute_window_s` is the caller's
  /// halo-independent compute run between posting and draining.
  [[nodiscard]] ExchangeRecord record(double compute_window_s) const {
    return {.sim_s = px_.sim_s,
            .tail_s = px_.tail_s,
            .window_s = mode_ == OverlapMode::kBlocking
                            ? 0.0
                            : compute_window_s + fold_window_s_,
            .span_s = px_.meas_span_s,
            .wait_s = px_.wait_s};
  }

 private:
  void wait_all() {
    Stopwatch w;
    px_.recvs.wait_all();
    px_.wait_s += w.elapsed_s();
    freeze_span();
  }

  /// Measured span ends at the last receive completion; record it the
  /// first time the set drains empty (later passes are no-ops).
  void freeze_span() {
    if (px_.meas_span_s == 0.0 && px_.recvs.all_done())
      px_.meas_span_s = px_.clock.elapsed_s();
  }

  template <typename ApplyFn>
  void apply_ready(ApplyFn& apply, Accumulator& compute_acc) {
    const std::size_t n = arrived_.size();
    while (next_ < n && arrived_[next_]) {
      comm::Wire msg = px_.recvs.at(next_).take_payload();
      Stopwatch sw;
      {
        ScopedTimer t(compute_acc);
        apply(next_, std::move(msg));
      }
      // Stream window: fold seconds of every peer but the last (the folds
      // that ran while at least one later transfer was still in flight).
      if (mode_ == OverlapMode::kStream && next_ + 1 < n)
        fold_window_s_ += sw.elapsed_s();
      ++next_;
    }
  }

  PendingExchange& px_;
  OverlapMode mode_;
  std::vector<char> arrived_; // landed, possibly not yet applied
  std::vector<std::size_t> ready_;
  std::size_t next_ = 0;      // first peer not yet applied
  double fold_window_s_ = 0.0;
};

/// What every layer of one forward pass — a training epoch, an evaluation
/// or a serve request batch — shares. References are borrowed for the
/// pass.
struct ForwardPass {
  const EpochPlan& plan;
  std::span<const float> inv_deg; // 1/full-degree mean normalizer
  /// Slot→dst reverse incidence of plan.adj. Pass it empty and the first
  /// layer builds it inside its in-flight window; every later layer (and,
  /// for a fixed plan, every later pass) reuses it.
  nn::HaloIncidence& inc;
  bool training;
  Accumulator& compute_acc;       // local math, folds included
};

/// One rank's boundary-exchange engine: owns the post/fold pair of the
/// split-phase protocol, the one phased layer-forward routine built on it,
/// and the per-(layer, peer) halo-cache state (docs/ARCHITECTURE.md §9).
/// The backward half is training-only but lives here because it is the
/// mirror of the same payload layout.
class HaloExchanger {
 public:
  struct Options {
    comm::CostModel cost;
    ExchangeSpec exchange;
    int num_layers = 0;
    std::int64_t feat_dim = 0;  // layer-0 row width
    std::int64_t hidden = 0;    // deeper-layer row width
  };

  HaloExchanger(comm::Endpoint& ep, const Options& opts);

  /// Halo-cache epoch context: the directories age entries by epoch index
  /// (the serving engine passes the request-batch index), and the per-epoch
  /// hit/miss/bytes-saved counters reset here.
  void begin_epoch(int epoch);
  [[nodiscard]] std::int64_t cache_hits() const { return ep_cache_hits_; }
  [[nodiscard]] std::int64_t cache_misses() const { return ep_cache_misses_; }
  [[nodiscard]] std::int64_t bytes_saved() const { return ep_bytes_saved_; }

  /// Cached layers: layer 0 whenever the cache is on (its rows are
  /// epoch-invariant), deeper layers only under a positive staleness
  /// bound. Backward exchanges carry gradients — never cached.
  [[nodiscard]] bool cache_enabled(int layer) const {
    return layer >= 0 && static_cast<std::size_t>(layer) < cache_.size() &&
           !cache_[static_cast<std::size_t>(layer)].empty();
  }

  /// One layer of Algorithm 1's forward (lines 8-11): post the exchange of
  /// h_in's sampled rows; in blocking mode wait; run F1 setup and F2a
  /// (building pass.inc inside the window when it is empty); run F1 in
  /// inner_chunk_rows chunks with a completion poll after each; drain the
  /// remaining peers in order through the FoldDriver (each slab resolved
  /// through the cache and 1/p-scaled); finish into `out`, which may alias
  /// h_in. `channel` is the halo-cache channel — the layer index, or -1 to
  /// bypass the cache (evaluation must not step the per-epoch
  /// directories). Returns the exchange's accounting record.
  ExchangeRecord forward_layer(const ForwardPass& pass, nn::Layer& layer,
                               const Matrix& h_in, int tag, int channel,
                               Matrix& out);

  /// Post the backward exchange: send each owner its halo-gradient rows
  /// (scaled; slot s lives at row s of `dhalo`), irecv the contributions
  /// peers computed for our inner rows.
  PendingExchange post_backward(const Matrix& dhalo, const EpochPlan& plan,
                                float scale, int tag);

  /// Backward fold: scatter-add the peer's gradient slab into the inner
  /// block, in fixed peer order (the accumulation order every mode shares
  /// — fp addition is not associative, so this is load-bearing). The
  /// backward direction is never cached, so the slab IS the wire payload.
  auto make_backward_fold(PendingExchange& px, const EpochPlan& plan,
                          Matrix& dinner) {
    return [this, &px, &plan, &dinner](std::size_t k, comm::Wire msg) {
      const std::int64_t d = dinner.cols();
      const auto& rows =
          plan.send_rows[static_cast<std::size_t>(px.peers[k])];
      BNSGCN_CHECK(msg.floats.size() ==
                   rows.size() * static_cast<std::size_t>(d));
      for (std::size_t t = 0; t < rows.size(); ++t) {
        float* dst = dinner.data() + static_cast<std::int64_t>(rows[t]) * d;
        const float* src = msg.floats.data() + t * static_cast<std::size_t>(d);
        for (std::int64_t c = 0; c < d; ++c) dst[c] += src[c];
      }
      ep_.release_floats(std::move(msg.floats));
    };
  }

 private:
  /// Post the forward exchange: send this layer's sampled rows of
  /// h_inner (misses only on a cached channel), irecv the halo rows each
  /// owner will push to us. Per-peer byte totals are accumulated while
  /// posting — with the cache on, the message count is unchanged (every
  /// peer still gets one frame, possibly empty) but miss-only payloads
  /// shrink both the simulated exchange time and the straggler tail.
  PendingExchange post_forward(const Matrix& h_inner, const EpochPlan& plan,
                               int tag, int channel);

  /// Staleness argument for a cached layer's directories: layer 0 never
  /// goes stale; deeper layers refresh after cache_staleness epochs.
  [[nodiscard]] int cache_max_age(int layer) const {
    return layer == 0 ? -1 : opt_.exchange.cache_staleness;
  }

  /// Resolve peer k's received message into this exchange's full row block
  /// (list order, unscaled): the wire payload itself on an uncached
  /// channel; on a cached one, hits materialize from the store and misses
  /// are consumed from the frame in order (kMissStore rows also refresh
  /// the store — raw wire bytes, so a later hit replays the identical
  /// values). Returns either msg.floats or the persistent fold scratch.
  std::span<float> slab_rows(PendingExchange& px, const EpochPlan& plan,
                             std::size_t k, comm::Wire& msg, std::int64_t d);

  comm::Endpoint& ep_;
  Options opt_;
  // Halo cache (docs/ARCHITECTURE.md §9). cache_[l] is empty when layer l
  // does not cache; otherwise one entry per peer. send_dir mirrors the
  // peer's recv_dir for the channel we send on; recv_dir classifies what
  // we receive, with `store` holding the raw (unscaled) wire rows of
  // hits, indexed by the directory's dense slot ids.
  struct LayerPeerCache {
    HaloCacheDir send_dir;
    HaloCacheDir recv_dir;
    std::vector<float> store;
  };
  std::vector<std::vector<LayerPeerCache>> cache_;
  std::vector<float> fold_scratch_; // cached-slab assembly, reused
  std::int64_t ep_cache_hits_ = 0;
  std::int64_t ep_cache_misses_ = 0;
  std::int64_t ep_bytes_saved_ = 0;
  int epoch_ = 0;
};

} // namespace bnsgcn::core

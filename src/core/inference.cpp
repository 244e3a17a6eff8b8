#include "core/inference.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "common/stopwatch.hpp"
#include "core/rank_model.hpp"

namespace bnsgcn::core {

namespace {

using comm::TrafficClass;

/// The exchange schedule a serve rank runs: `xs` with cache_staleness
/// clamped to 0. Staleness is a training-only knob (bounded drift on
/// *changing* activations); weights are frozen here, so served bits stay
/// unconditionally identical to the cache-off forward — layer-0 rows, the
/// batch-invariant bulk, still cache and hit.
ExchangeSpec serve_exchange(ExchangeSpec xs) {
  xs.cache_staleness = 0;
  return xs;
}

/// Copy every ServeBatchStats field with an EpochBreakdown twin (the same
/// key; inference.hpp asserts that every key but latency_s has one) from
/// the reduced breakdown.
void take_breakdown(const EpochBreakdown& all, ServeBatchStats& stats) {
  for_each_field(kServeBatchStatsFields, [&](const auto& s) {
    for_each_field(kEpochBreakdownFields, [&](const auto& e) {
      using S = std::remove_cvref_t<decltype(stats.*s.member)>;
      using E = std::remove_cvref_t<decltype(all.*e.member)>;
      if constexpr (std::is_same_v<S, E>)
        if (s.key == e.key) stats.*s.member = all.*e.member;
    });
  });
}

/// Per-rank serving state and loop: the rank's model loaded with the
/// trained parameters, in inference mode, answering query batches.
class ServeWorker : public RankModel {
 public:
  ServeWorker(const Dataset& ds, const TrainerConfig& cfg,
              const ExchangeSpec& xs, std::span<const Matrix> trained,
              const LocalGraph& lg, comm::Endpoint& ep)
      : RankModel(ds, cfg, serve_exchange(xs), lg, ep) {
    // The trained parameters travel in params() order, so the stack built
    // here holds bit for bit the trained weights.
    const std::vector<Matrix*> dst = params();
    BNSGCN_CHECK_MSG(trained.size() == dst.size(),
                     "trained parameters do not match the configured stack: " +
                         std::to_string(trained.size()) + " tensors vs " +
                         std::to_string(dst.size()));
    for (std::size_t i = 0; i < dst.size(); ++i) *dst[i] = trained[i];
    // Inference mode: maskless activations (identical values), backward
    // caches and gradient buffers freed.
    for (auto& l : layers_) l->set_inference(true);
  }

  [[nodiscard]] ServeResult run(const ServeOptions& opts) {
    BNSGCN_CHECK(opts.batch_size >= 1 && opts.num_batches >= 0);
    ServeResult result;
    result.num_classes = ds_.num_classes;
    result.timing = ep_.timing();
    record_logits_ = opts.record_logits;
    Stopwatch wall;
    // Every rank draws the identical flat query stream (same seed, same
    // generator), so owners and rank 0 agree on the queries without any
    // extra wire traffic — and the stream is independent of batching.
    Rng query_rng(opts.seed ^ 0x5E47EFACEULL);
    const auto n_nodes = static_cast<std::uint64_t>(ds_.num_nodes());

    for (int b = 0; b < opts.num_batches; ++b) {
      // The batch index is the halo-cache epoch: layer-0 directories never
      // go stale (input features are immutable), deeper layers age across
      // request batches exactly as they age across training epochs.
      hx_->begin_epoch(b);
      std::vector<NodeId> queries(static_cast<std::size_t>(opts.batch_size));
      for (auto& q : queries)
        q = static_cast<NodeId>(query_rng.next_below(n_nodes));

      // Test-only fault injection (ServeOptions::fail_rank): die before
      // batch 0's entry barrier, leaving peers mid-request-stream — the
      // fabric's shutdown path must unwind them with ShutdownError.
      if (b == 0 && opts.fail_rank == ep_.rank())
        throw std::runtime_error("injected serve failure: rank " +
                                 std::to_string(ep_.rank()));

      // Latency is measured from a synchronized start: the barrier is the
      // request batch's arrival edge, and rank 0's clock stops once the
      // batch's predictions are assembled.
      ep_.barrier();
      const comm::RankStats before = ep_.stats();
      Stopwatch latency;

      Matrix logits;
      const double span_s = forward_full(/*cached=*/true, logits);
      gather_batch(queries, logits, result);
      ServeBatchStats stats;
      if (ep_.rank() == 0) stats.latency_s = latency.elapsed_s();

      // Byte/cache accounting rides the breakdown reduction after the
      // latency clock stopped, so the bookkeeping never pollutes the
      // measurement. The collective also keeps ranks batch-synchronous, so
      // the per-batch traffic deltas are unambiguous. comm_s follows the
      // training rule: measured exchange spans on socket fabrics, the cost
      // model on the mailbox.
      const comm::RankStats delta = ep_.stats() - before;
      EpochBreakdown local;
      local.timing = ep_.timing();
      local.comm_s = local.timing == comm::TimingSource::kMeasured
                         ? span_s
                         : delta.sim_seconds(TrafficClass::kFeature, cfg_.cost);
      local.feature_bytes =
          delta.rx_bytes[static_cast<int>(TrafficClass::kFeature)];
      local.control_bytes =
          delta.rx_bytes[static_cast<int>(TrafficClass::kControl)];
      local.cache_hit_rows = hx_->cache_hits();
      local.cache_miss_rows = hx_->cache_misses();
      local.bytes_saved = hx_->bytes_saved();
      const EpochBreakdown all = reduce_breakdown(ep_, local);
      if (ep_.rank() == 0) {
        take_breakdown(all, stats);
        result.batches.push_back(stats);
      }
    }
    result.serve_wall_s = wall.elapsed_s();
    return result;
  }

 private:
  /// Route the batch's logits rows to rank 0 and assemble them in query
  /// order. Every rank knows the full query list (shared stream), so each
  /// owner ships (position, row) pairs over kControl and rank 0 folds the
  /// peers in ascending rank order — the same fixed-order convention as
  /// every other cross-rank path.
  void gather_batch(const std::vector<NodeId>& queries, const Matrix& logits,
                    ServeResult& result) {
    const std::int64_t c = logits.cols();
    std::vector<NodeId> owned_pos;
    std::vector<float> owned_rows;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto it = std::lower_bound(lg_.inner_global.begin(),
                                       lg_.inner_global.end(), queries[i]);
      if (it == lg_.inner_global.end() || *it != queries[i]) continue;
      const auto row = static_cast<std::int64_t>(
          std::distance(lg_.inner_global.begin(), it));
      owned_pos.push_back(static_cast<NodeId>(i));
      const float* src = logits.data() + row * c;
      owned_rows.insert(owned_rows.end(), src, src + c);
    }

    const int tag = next_tag();
    if (ep_.rank() != 0) {
      ep_.send_ids(0, tag, std::move(owned_pos), TrafficClass::kControl);
      ep_.send_floats(0, tag, std::move(owned_rows), TrafficClass::kControl);
      return;
    }

    Matrix batch_logits(static_cast<NodeId>(queries.size()), c);
    const auto place = [&](std::span<const NodeId> pos,
                           std::span<const float> rows) {
      BNSGCN_CHECK(rows.size() ==
                   pos.size() * static_cast<std::size_t>(c));
      for (std::size_t t = 0; t < pos.size(); ++t) {
        std::copy(rows.data() + t * static_cast<std::size_t>(c),
                  rows.data() + (t + 1) * static_cast<std::size_t>(c),
                  batch_logits.data() +
                      static_cast<std::int64_t>(pos[t]) * c);
      }
    };
    place(owned_pos, owned_rows);
    std::size_t placed = owned_pos.size();
    for (PartId p = 1; p < ep_.nranks(); ++p) {
      const auto pos = ep_.recv_ids(p, tag, TrafficClass::kControl);
      const auto rows = ep_.recv_floats(p, tag, TrafficClass::kControl);
      place(pos, rows);
      placed += pos.size();
    }
    BNSGCN_CHECK_MSG(placed == queries.size(),
                     "serve gather lost query rows: " +
                         std::to_string(placed) + " of " +
                         std::to_string(queries.size()));

    result.queries.insert(result.queries.end(), queries.begin(),
                          queries.end());
    for (NodeId q = 0; q < batch_logits.rows(); ++q) {
      const float* row = batch_logits.data() + static_cast<std::int64_t>(q) * c;
      int best = 0;
      for (std::int64_t k = 1; k < c; ++k)
        if (row[k] > row[best]) best = static_cast<int>(k);
      result.predictions.push_back(best);
    }
    if (record_logits_) {
      result.logits.insert(result.logits.end(), batch_logits.data(),
                           batch_logits.data() + batch_logits.size());
    }
  }

  bool record_logits_ = false;
};

} // namespace

ServeResult BnsTrainer::serve_rank(comm::Fabric& fabric, PartId rank,
                                   const ServeOptions& opts) const {
  BNSGCN_CHECK_MSG(!params_.empty(),
                   "BnsTrainer::serve_rank needs trained parameters: call "
                   "train() first");
  BNSGCN_CHECK(rank >= 0 && rank < part_.nparts &&
               fabric.nranks() == part_.nparts);
  ServeWorker worker(ds_, cfg_, xs_, params_,
                     local_graphs_[static_cast<std::size_t>(rank)],
                     fabric.endpoint(rank));
  return worker.run(opts);
}

} // namespace bnsgcn::core

#include "core/inference.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/boundary_sampler.hpp"

namespace bnsgcn::core {

namespace {

using comm::TrafficClass;

/// Per-rank serving state and loop: the forward-only mirror of the
/// trainer's RankWorker. One instance per rank — a thread on the mailbox
/// fabric, a whole OS process on a socket fabric.
class ServeWorker {
 public:
  ServeWorker(const Dataset& ds, const TrainerConfig& cfg, ExchangeSpec xs,
              const WeightSnapshot& weights, const LocalGraph& lg,
              comm::Endpoint& ep)
      : ds_(ds), cfg_(cfg), lg_(lg), ep_(ep) {
    common::set_ops_threads(
        cfg_.threads_oversubscribe
            ? cfg_.threads
            : common::clamp_rank_threads(cfg_.threads, ep_.nranks()));
    x_local_ = slice_rows(ds.features, lg_.inner_global);

    layers_ = build_model(cfg_, ds.feat_dim(), ds.num_classes, ep_.rank());
    // Load the snapshot: parameters travel flattened in params() order —
    // the same order the allreduce and Adam traverse, so the stack built
    // here holds bit-for-bit the trained weights.
    std::vector<Matrix*> params;
    for (auto& l : layers_)
      for (Matrix* p : l->params()) params.push_back(p);
    BNSGCN_CHECK_MSG(weights.params.size() == params.size(),
                     "weight snapshot does not match the configured stack: " +
                         std::to_string(weights.params.size()) + " tensors vs " +
                         std::to_string(params.size()));
    for (std::size_t i = 0; i < params.size(); ++i) {
      BNSGCN_CHECK_MSG(weights.params[i].rows() == params[i]->rows() &&
                           weights.params[i].cols() == params[i]->cols(),
                       "weight snapshot tensor " + std::to_string(i) +
                           " has mismatched shape");
      *params[i] = weights.params[i];
    }
    // Inference mode: maskless activations (identical values), backward
    // caches and gradient buffers freed.
    for (auto& l : layers_) l->set_inference(true);

    // Serving always exchanges the full boundary set (the unsampled plan —
    // queries are answered over the exact graph).
    BoundarySampler::Options so;
    so.seed = cfg_.seed;
    sampler_.emplace(lg_, so);
    full_plan_ = sampler_->full_plan();

    // Staleness is a training-only knob (bounded drift on *changing*
    // activations); weights are frozen here, so clamp it to 0 and keep
    // served bits unconditionally identical to the cache-off forward —
    // layer-0 rows, the batch-invariant bulk, still cache and hit.
    xs.cache_staleness = 0;
    hx_.emplace(ep_, HaloExchanger::Options{.cost = cfg_.cost,
                                            .exchange = xs,
                                            .num_layers = cfg_.num_layers,
                                            .feat_dim = ds.feat_dim(),
                                            .hidden = cfg_.hidden});
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

      double span_s = 0.0;
      const Matrix logits = forward_full_graph(span_s);
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
        stats.comm_s = all.comm_s;
        stats.feature_bytes = all.feature_bytes;
        stats.control_bytes = all.control_bytes;
        stats.cache_hit_rows = all.cache_hit_rows;
        stats.cache_miss_rows = all.cache_miss_rows;
        stats.bytes_saved = all.bytes_saved;
        result.batches.push_back(stats);
      }
    }
    result.wall_time_s = wall.elapsed_s();
    return result;
  }

 private:
  int next_tag() { return tag_seq_++; }

  /// One full-graph forward over the inner block through the training
  /// forward's own routine (HaloExchanger::forward_layer) — which is what
  /// makes the output bit-identical to a training-path forward of the same
  /// weights. `span_s` receives the summed measured exchange spans.
  [[nodiscard]] Matrix forward_full_graph(double& span_s) {
    Accumulator untimed;
    const ForwardPass pass{.plan = full_plan_,
                           .inv_deg = lg_.inv_full_degree,
                           .inc = halo_inc_,
                           .training = false,
                           .compute_acc = untimed};
    Matrix h = x_local_;
    for (int l = 0; l < cfg_.num_layers; ++l)
      span_s += hx_->forward_layer(pass, *layers_[static_cast<std::size_t>(l)],
                                   h, next_tag(), l, h)
                    .span_s;
    return h;
  }

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

  const Dataset& ds_;
  const TrainerConfig& cfg_;
  const LocalGraph& lg_;
  comm::Endpoint& ep_;

  Matrix x_local_;
  std::vector<std::unique_ptr<nn::Layer>> layers_;
  std::optional<BoundarySampler> sampler_;
  EpochPlan full_plan_;
  std::optional<HaloExchanger> hx_;
  nn::HaloIncidence halo_inc_; // full plan's, built in the first forward
  bool record_logits_ = false;
  int tag_seq_ = 0;
};

} // namespace

InferenceEngine::InferenceEngine(const Dataset& ds, const Partitioning& part,
                                 TrainerConfig cfg, ExchangeSpec xs,
                                 const WeightSnapshot& weights)
    : ds_(ds), cfg_(std::move(cfg)), xs_(xs), part_(part), weights_(weights) {
  BNSGCN_CHECK(cfg_.num_layers >= 1);
  validate_exchange_spec(xs_);
  BNSGCN_CHECK_MSG(!weights_.empty(),
                   "api::serve needs a trained weight snapshot "
                   "(TrainerConfig::capture_weights)");
  local_graphs_ = build_local_graphs(ds.graph, part_);
}

ServeResult InferenceEngine::serve_rank(comm::Fabric& fabric, PartId rank,
                                        const ServeOptions& opts) {
  BNSGCN_CHECK(rank >= 0 && rank < part_.nparts &&
               fabric.nranks() == part_.nparts);
  ServeWorker worker(ds_, cfg_, xs_, weights_,
                     local_graphs_[static_cast<std::size_t>(rank)],
                     fabric.endpoint(rank));
  return worker.run(opts);
}

ServeResult InferenceEngine::serve(const ServeOptions& opts) {
  comm::Fabric fabric(part_.nparts, cfg_.cost);
  ServeResult result;
  Stopwatch wall;
  comm::run_ranks(fabric, [&](PartId r) {
    ServeResult local = serve_rank(fabric, r, opts);
    if (r == 0) result = std::move(local);
  });
  result.wall_time_s = wall.elapsed_s();
  return result;
}

} // namespace bnsgcn::core

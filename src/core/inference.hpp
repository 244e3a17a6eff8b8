#pragma once

#include <vector>

#include "comm/fabric.hpp"
#include "core/local_graph.hpp"
#include "core/trainer.hpp"
#include "graph/dataset.hpp"

namespace bnsgcn::core {

/// One serve run's request generator + loop parameters (api::ServeConfig
/// names this struct at the api level; JSON keys batch_size, num_batches,
/// seed and record_logits). Queries are global node ids drawn from a
/// single persistent stream seeded with `seed`: batch b serves queries
/// [b*batch_size, (b+1)*batch_size) of that flat stream, so two runs with
/// the same seed and the same total query count serve the identical queries
/// in the identical order regardless of how they are batched — the anchor
/// of the cross-batch-size determinism tests.
struct ServeOptions {
  int batch_size = 32;
  int num_batches = 8;
  std::uint64_t seed = 1;
  /// Keep the per-query logits rows in the result (the determinism tests'
  /// bitwise oracle; floats round-trip the JSON artifact exactly). Off by
  /// default: predictions are always kept and are what a real client
  /// consumes.
  bool record_logits = false;
  /// Test-only: the named rank throws before batch 0's first exchange,
  /// exercising the serve-path shutdown (peers surface comm::ShutdownError
  /// instead of hanging mid-request-stream). -1 disables. Not serialized.
  int fail_rank = -1;
};

inline constexpr auto kServeOptionsFields =
    std::tuple{field("batch_size", &ServeOptions::batch_size),
               field("num_batches", &ServeOptions::num_batches),
               field("seed", &ServeOptions::seed),
               field("record_logits", &ServeOptions::record_logits)};

/// Per-request-batch accounting. latency_s is measured wall time on rank 0
/// from the batch's entry barrier to the assembled predictions. comm_s is
/// the batch's exchange time by the training rule — summed measured
/// post→last-receive spans on socket fabrics, the cost model on the
/// mailbox (ServeResult::timing says which) — max over ranks; the
/// byte/cache counters sum over ranks. Both go through the training
/// epoch's reduction (reduce_breakdown), so serve and train artifacts
/// compare directly.
struct ServeBatchStats {
  double latency_s = 0.0;
  double comm_s = 0.0;
  std::int64_t feature_bytes = 0;
  std::int64_t control_bytes = 0;
  std::int64_t cache_hit_rows = 0;
  std::int64_t cache_miss_rows = 0;
  std::int64_t bytes_saved = 0;
};

/// ServeBatchStats' field table: the cache counters follow the
/// EpochBreakdown rule (written only when a cache ran).
inline constexpr auto kServeBatchStatsFields = [] {
  using enum Presence;
  using B = ServeBatchStats;
  return std::tuple{field("latency_s", &B::latency_s),
                    field("comm_s", &B::comm_s),
                    field("feature_bytes", &B::feature_bytes),
                    field("control_bytes", &B::control_bytes),
                    field("cache_hit_rows", &B::cache_hit_rows, kCache),
                    field("cache_miss_rows", &B::cache_miss_rows, kCache),
                    field("bytes_saved", &B::bytes_saved, kCache)};
}();
static_assert(member_count<ServeBatchStats>() ==
                  std::tuple_size_v<decltype(kServeBatchStatsFields)>,
              "every ServeBatchStats member needs an entry in "
              "kServeBatchStatsFields");

/// Rank 0's view of a completed serve run (other ranks participated in the
/// collectives but hold empty curves, exactly like TrainResult).
struct ServeResult : HaloCacheTotals<ServeResult> {
  std::vector<NodeId> queries;     // global ids, flat across batches
  std::vector<int> predictions;    // argmax class per query
  std::vector<float> logits;       // queries × num_classes, row-major;
                                   // empty unless ServeOptions::record_logits
  std::vector<ServeBatchStats> batches;
  int num_classes = 0;
  double serve_wall_s = 0.0;       // wall time of the serve loop
  comm::TimingSource timing = comm::TimingSource::kSimulated;

  [[nodiscard]] const std::vector<ServeBatchStats>& cache_rows() const {
    return batches;
  }
};

/// Forward-only serving over the partitioned graph (docs/ARCHITECTURE.md
/// §10): load a WeightSnapshot captured by training, put every layer in
/// inference mode (backward buffers freed), and answer query batches with
/// the trainer's own phased layer forward (HaloExchanger::forward_layer)
/// — so served logits are bit-identical to a training-path forward of the
/// same weights, across transports, overlap modes and batch sizes.
///
/// Reuses TrainerConfig for the model knobs (num_layers, hidden, model,
/// threads, cost); training-only fields (lr, epochs, dropout, sampling)
/// are ignored — serving always exchanges the full boundary set. The
/// ExchangeSpec schedules the exchanges as in training, except that
/// cache_staleness is clamped to 0: weights are frozen, so served bits
/// stay identical to the cache-off forward.
class InferenceEngine {
 public:
  /// `weights` must hold the stack's parameters flattened in params()
  /// order (what TrainerConfig::capture_weights produces); shapes are
  /// checked on load. ds/part/weights are borrowed for the engine's
  /// lifetime. `xs` is validated here, before any rank starts.
  InferenceEngine(const Dataset& ds, const Partitioning& part,
                  TrainerConfig cfg, ExchangeSpec xs,
                  const WeightSnapshot& weights);

  /// One rank of the serve loop against an externally constructed fabric;
  /// api::serve runs it on every rank through the rank runtime
  /// (api::run_ranks_piped), on any transport.
  [[nodiscard]] ServeResult serve_rank(comm::Fabric& fabric, PartId rank,
                                       const ServeOptions& opts);

 private:
  const Dataset& ds_;
  TrainerConfig cfg_;
  ExchangeSpec xs_;
  Partitioning part_;
  const WeightSnapshot& weights_;
  std::vector<LocalGraph> local_graphs_;
};

} // namespace bnsgcn::core

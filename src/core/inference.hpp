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

/// Rank 0's view of a completed serve run (other ranks participated in the
/// collectives but hold empty curves, exactly like TrainResult).
struct ServeResult {
  std::vector<NodeId> queries;     // global ids, flat across batches
  std::vector<int> predictions;    // argmax class per query
  std::vector<float> logits;       // queries × num_classes, row-major;
                                   // empty unless ServeOptions::record_logits
  std::vector<ServeBatchStats> batches;
  int num_classes = 0;
  double wall_time_s = 0.0;
  comm::TimingSource timing = comm::TimingSource::kSimulated;
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

  /// In-process serve: mailbox fabric, one thread per partition
  /// (comm::run_ranks, the same runtime and failure handling as
  /// BnsTrainer::train()).
  [[nodiscard]] ServeResult serve(const ServeOptions& opts);

  /// One rank of the serve loop against an externally constructed fabric —
  /// the multi-process runtime's entry point (api::serve over sockets).
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

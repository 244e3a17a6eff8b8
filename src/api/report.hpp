#pragma once

#include <string>
#include <vector>

#include "api/partition_cache.hpp"
#include "core/memory_model.hpp"
#include "core/trainer.hpp"

namespace bnsgcn::api {

/// The one result type of `bnsgcn::api::run`: the engine-level
/// core::TrainResult (whose fields and derived quantities — throughput,
/// sampler overhead, the halo-cache totals — it inherits) plus the run's
/// provenance, so every method — BNS-GCN, the partition-parallel proxies
/// and the minibatch samplers — reports through the same fields. An engine
/// result becomes a report by aggregate initialization:
/// `RunReport{std::move(train_result)}`.
///
/// Semantics per method family:
///  - Partition-parallel methods fill the full EpochBreakdown (measured
///    compute + simulated comm/reduce/swap from exact byte counts) and the
///    Eq. 4 memory report.
///  - Minibatch baselines run single-process: their breakdown carries the
///    measured wall time split into compute_s and sample_s, with the comm
///    fields zero and `memory` empty.
struct RunReport : core::TrainResult {
  std::string method{};   // registry name, e.g. "bns", "graph-saint"
  std::string dataset{};  // dataset name ("" when unknown)

  /// What this run's partition lookup cost (delta of the global cache's
  /// counters around it): misses=1 means the partitioner actually ran,
  /// hits=1 or disk_hits=1 means it was served. All-zero for methods
  /// without a partition and for the explicit-Partitioning run overload.
  PartitionCacheStats partition_cache{};

  /// Trained epoch count. Falls back to the breakdown count for custom
  /// methods that don't track losses.
  [[nodiscard]] int num_epochs() const {
    return static_cast<int>(train_loss.empty() ? epochs.size()
                                               : train_loss.size());
  }
  /// Mean per-epoch time under each method's own clock (simulated total
  /// for partition-parallel methods, measured wall for minibatch ones) —
  /// the Table 11 quantity.
  [[nodiscard]] double epoch_time_s() const { return mean_epoch().total_s(); }
  /// Measured wall time per epoch (rank threads genuinely run in parallel).
  [[nodiscard]] double wall_epoch_s() const {
    return num_epochs() > 0 ? wall_time_s / num_epochs() : 0.0;
  }
  /// Mean per-epoch exchange time hidden by communication–computation
  /// overlap (0 when RunConfig::comm.overlap is OverlapMode::kBlocking;
  /// the stream schedule widens it over bulk).
  [[nodiscard]] double overlap_saved_s() const {
    return mean_epoch().overlap_s;
  }
  /// Fraction of the mean epoch's exchange time the pipeline hid.
  [[nodiscard]] double overlap_fraction() const {
    const auto mean = mean_epoch();
    return mean.comm_s > 0.0 ? mean.overlap_s / mean.comm_s : 0.0;
  }
  /// Total training time under the method's own clock (Table 5): simulated
  /// epoch totals for partition-parallel methods, wall for minibatch.
  [[nodiscard]] double total_train_s() const;
};

} // namespace bnsgcn::api

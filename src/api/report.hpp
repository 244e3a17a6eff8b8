#pragma once

#include <string>
#include <vector>

#include "api/partition_cache.hpp"
#include "core/memory_model.hpp"
#include "core/trainer.hpp"

namespace bnsgcn::api {

/// The one result type of `bnsgcn::api::run`: subsumes the engine-level
/// core::TrainResult and the former baselines BaselineResult, so every
/// method — BNS-GCN, the partition-parallel proxies and the minibatch
/// samplers — reports through the same fields and the derived quantities
/// (throughput, sampler overhead, ...) are defined exactly once.
///
/// Semantics per method family:
///  - Partition-parallel methods fill the full EpochBreakdown (measured
///    compute + simulated comm/reduce/swap from exact byte counts) and the
///    Eq. 4 memory report.
///  - Minibatch baselines run single-process: their breakdown carries the
///    measured wall time split into compute_s and sample_s, with the comm
///    fields zero and `memory` empty.
struct RunReport {
  std::string method;   // registry name, e.g. "bns", "graph-saint"
  std::string dataset;  // dataset name ("" when unknown)

  std::vector<double> train_loss;          // one per epoch (global mean)
  std::vector<core::EvalPoint> curve;      // eval_every snapshots
  double final_val = 0.0;
  double final_test = 0.0;
  std::vector<core::EpochBreakdown> epochs;
  core::MemoryReport memory;               // empty for minibatch methods
  double wall_time_s = 0.0;                // measured end-to-end wall time
  /// What this run's partition lookup cost (delta of the global cache's
  /// counters around it): misses=1 means the partitioner actually ran,
  /// hits=1 or disk_hits=1 means it was served. All-zero for methods
  /// without a partition and for the explicit-Partitioning run overload.
  PartitionCacheStats partition_cache;

  /// Trained epoch count. Falls back to the breakdown count for custom
  /// methods that don't track losses.
  [[nodiscard]] int num_epochs() const {
    return static_cast<int>(train_loss.empty() ? epochs.size()
                                               : train_loss.size());
  }
  [[nodiscard]] core::EpochBreakdown mean_epoch() const {
    return core::mean_breakdown(epochs);
  }
  /// Mean per-epoch time under each method's own clock (simulated total
  /// for partition-parallel methods, measured wall for minibatch ones) —
  /// the Table 11 quantity.
  [[nodiscard]] double epoch_time_s() const { return mean_epoch().total_s(); }
  /// Measured wall time per epoch (rank threads genuinely run in parallel).
  [[nodiscard]] double wall_epoch_s() const {
    return num_epochs() > 0 ? wall_time_s / num_epochs() : 0.0;
  }
  /// Table 12 quantity: sampler time / total epoch time.
  [[nodiscard]] double sampler_overhead() const {
    return core::sampler_overhead(epochs);
  }
  /// Fig. 4 quantity: epochs per (simulated) second.
  [[nodiscard]] double throughput_eps() const {
    return core::throughput_eps(epochs);
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

  /// Halo-cache totals over all epochs (docs/ARCHITECTURE.md §9): boundary
  /// rows served from the receiver-side cache / shipped over the wire,
  /// summed across ranks. All zero when RunConfig::comm.cache_mb == 0.
  [[nodiscard]] std::int64_t cache_hit_rows() const {
    std::int64_t n = 0;
    for (const auto& e : epochs) n += e.cache_hit_rows;
    return n;
  }
  [[nodiscard]] std::int64_t cache_miss_rows() const {
    std::int64_t n = 0;
    for (const auto& e : epochs) n += e.cache_miss_rows;
    return n;
  }
  /// Gross feature bytes the cache kept off the wire (the index-list
  /// overhead of delta frames is already inside feature_bytes).
  [[nodiscard]] std::int64_t cache_bytes_saved() const {
    std::int64_t n = 0;
    for (const auto& e : epochs) n += e.bytes_saved;
    return n;
  }
  /// hits / (hits + misses) over the whole run; 0 with the cache off.
  [[nodiscard]] double cache_hit_rate() const {
    const std::int64_t total = cache_hit_rows() + cache_miss_rows();
    return total > 0 ? static_cast<double>(cache_hit_rows()) /
                           static_cast<double>(total)
                     : 0.0;
  }

  /// Wrap an engine-level result (field-for-field move; losses stay
  /// bit-identical, which the parity test in tests/test_api.cpp pins).
  [[nodiscard]] static RunReport from_train_result(core::TrainResult&& tr,
                                                   std::string method,
                                                   std::string dataset);
};

} // namespace bnsgcn::api

#pragma once

#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/fabric.hpp"
#include "core/trainer.hpp"

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

/// Whether kEpochBreakdownFields has an entry keyed `key` whose member is
/// an M: a batch row takes its value from the reduced breakdown there.
template <class M>
constexpr bool has_breakdown_twin(std::string_view key) {
  bool found = false;
  for_each_field(kEpochBreakdownFields, [&](const auto& f) {
    using T = std::remove_cvref_t<
        decltype(std::declval<EpochBreakdown&>().*f.member)>;
    found = found || (f.key == key && std::is_same_v<T, M>);
  });
  return found;
}
static_assert(
    [] {
      bool all = true;
      for_each_field(kServeBatchStatsFields, [&](const auto& f) {
        using M = std::remove_cvref_t<
            decltype(std::declval<ServeBatchStats&>().*f.member)>;
        all = all && (f.key == "latency_s" || has_breakdown_twin<M>(f.key));
      });
      return all;
    }(),
    "every ServeBatchStats key but latency_s needs an EpochBreakdown twin "
    "of the same type");

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

} // namespace bnsgcn::core

#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "api/run.hpp"
#include "common/json.hpp"
#include "core/inference.hpp"

namespace bnsgcn::api {

/// Serving knobs of api::serve: the engine's own options (JSON keys
/// batch_size, num_batches, seed, record_logits; fail_rank is test-only,
/// not serialized).
using ServeConfig = core::ServeOptions;

/// The result of api::serve: training provenance plus the per-batch
/// latency/traffic rows and the answered queries. Mirrors RunReport's
/// conventions — stored fields round-trip the JSON artifact exactly, the
/// headline numbers are derived accessors recomputed on read.
struct ServeReport {
  std::string method;   // always "bns" today
  std::string dataset;

  int batch_size = 0;
  int num_batches = 0;
  int num_classes = 0;
  std::vector<core::ServeBatchStats> batches;
  std::vector<NodeId> queries;     // global ids, flat across batches
  std::vector<int> predictions;    // argmax class per query
  std::vector<float> logits;       // queries × num_classes; empty unless
                                   // ServeConfig::record_logits
  double train_wall_s = 0.0;  // wall time of the weight-producing training
  double serve_wall_s = 0.0;  // wall time of the serve loop (rank 0)
  comm::TimingSource timing = comm::TimingSource::kSimulated;

  [[nodiscard]] int total_queries() const {
    return static_cast<int>(queries.size());
  }
  /// Nearest-rank percentile over the per-batch latencies (p in [0,1]):
  /// the smallest latency with at least a p share of batches at or below
  /// it, i.e. the ceil(p*n)-th smallest, clamped to [1, n]. p*n is rounded
  /// to 9 decimals first, so p = k/n picks the k-th exactly.
  [[nodiscard]] double latency_percentile_s(double p) const {
    if (batches.empty()) return 0.0;
    std::vector<double> lat;
    lat.reserve(batches.size());
    for (const auto& b : batches) lat.push_back(b.latency_s);
    std::sort(lat.begin(), lat.end());
    const auto n = static_cast<double>(lat.size());
    const double rank = std::ceil(std::round(p * n * 1e9) / 1e9);
    return lat[static_cast<std::size_t>(std::clamp(rank, 1.0, n)) - 1];
  }
  [[nodiscard]] double p50_latency_s() const {
    return latency_percentile_s(0.50);
  }
  [[nodiscard]] double p99_latency_s() const {
    return latency_percentile_s(0.99);
  }
  /// Served queries per second of request-handling time (sum of batch
  /// latencies): the batching lever's headline — one full-graph forward
  /// answers the whole batch, so QPS grows with batch size.
  [[nodiscard]] double qps() const {
    double busy = 0.0;
    for (const auto& b : batches) busy += b.latency_s;
    return busy > 0.0 ? static_cast<double>(total_queries()) / busy : 0.0;
  }
  /// Halo-cache totals over the request stream (RunReport conventions).
  [[nodiscard]] std::int64_t cache_hit_rows() const {
    std::int64_t n = 0;
    for (const auto& b : batches) n += b.cache_hit_rows;
    return n;
  }
  [[nodiscard]] std::int64_t cache_miss_rows() const {
    std::int64_t n = 0;
    for (const auto& b : batches) n += b.cache_miss_rows;
    return n;
  }
  [[nodiscard]] std::int64_t cache_bytes_saved() const {
    std::int64_t n = 0;
    for (const auto& b : batches) n += b.bytes_saved;
    return n;
  }
  [[nodiscard]] double cache_hit_rate() const {
    const std::int64_t total = cache_hit_rows() + cache_miss_rows();
    return total > 0 ? static_cast<double>(cache_hit_rows()) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// Train cfg end to end (always on the in-process mailbox — trained
/// weights are bit-identical across transports, so the snapshot serves on
/// any fabric), snapshot the weights, then answer scfg's query batches
/// over the live partitioned graph with the forward-only engine
/// (core::InferenceEngine). cfg.comm.transport picks the serving fabric:
/// mailbox serves in-process, uds/tcp serve one OS process per rank
/// through the shared piped-rank runtime. Only Method::kBns serves.
[[nodiscard]] ServeReport serve(const RunConfig& cfg, const ServeConfig& scfg);

/// Same, over a prebuilt dataset (partition built per cfg.partition through
/// the process-global cache).
[[nodiscard]] ServeReport serve(const Dataset& ds, const RunConfig& cfg,
                                const ServeConfig& scfg);

/// Same, over a prebuilt dataset and partitioning.
[[nodiscard]] ServeReport serve(const Dataset& ds, const Partitioning& part,
                                const RunConfig& cfg,
                                const ServeConfig& scfg);

/// ServeConfig / ServeReport (de)serialization, RunConfig conventions:
/// field-complete round-trip, absent keys keep the C++ defaults.
[[nodiscard]] json::Value to_json(const ServeConfig& scfg);
[[nodiscard]] ServeConfig serve_config_from_json(const json::Value& v);
[[nodiscard]] json::Value to_json(const ServeReport& r);
[[nodiscard]] ServeReport serve_report_from_json(const json::Value& v);
[[nodiscard]] std::string to_json_string(const ServeConfig& scfg,
                                         int indent = 2);
[[nodiscard]] ServeConfig serve_config_from_json_string(std::string_view text);
[[nodiscard]] std::string to_json_string(const ServeReport& r,
                                         int indent = 2);
[[nodiscard]] ServeReport serve_report_from_json_string(std::string_view text);

} // namespace bnsgcn::api

#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "api/partition_spec.hpp"
#include "api/presets.hpp"
#include "api/report.hpp"
#include "baselines/minibatch.hpp"
#include "core/trainer.hpp"
#include "partition/partitioning.hpp"

namespace bnsgcn::api {

/// Built-in training methods: the paper's method, the partition-parallel
/// proxies it is compared against (Fig. 4), and the five sampling-based
/// baselines (Tables 4/5/11/12).
enum class Method {
  kBns,               // BNS-GCN (Algorithm 1); p=1 → vanilla partition par.
  kRocProxy,          // ROC-style host-swap training (Fig. 1b proxy)
  kCagnetProxy,       // CAGNET-style 1.5D broadcast (Fig. 1c proxy)
  kFullGraph,         // single-process full-graph training (oracle)
  kNeighborSampling,  // GraphSAGE (Hamilton et al. 2017)
  kFastGcn,           // layer sampling, global pool
  kLadies,            // layer sampling, neighbor-restricted pool
  kClusterGcn,        // subgraph sampling via METIS clusters
  kGraphSaint,        // subgraph sampling via degree-weighted node budget
};

/// Communication knobs of the partition-parallel methods: the exchange
/// schedule and halo cache (core::ExchangeSpec, handed unchanged to BNS —
/// training and serving — and the ROC proxy; the CAGNET proxy and the
/// minibatch baselines have no halo exchange) plus the fabric backend.
struct CommSpec : core::ExchangeSpec {
  /// Fabric backend. kMailbox (default) trains every rank as a thread over
  /// the in-process deterministic fabric, with comm/overlap times simulated
  /// from byte counts. kUds / kTcp spawn one OS process per rank connected
  /// by a socket fabric (api/multiprocess.hpp): identical losses and byte
  /// counts — the schedule and fold orders are transport-invariant — but
  /// comm/overlap/tail/reduce become measured wall-clock
  /// (EpochBreakdown::timing is kMeasured, and the report's JSON carries
  /// "timing_source": "measured"). Only Method::kBns routes to the
  /// multi-process runtime; JSON key "transport", values "mailbox" /
  /// "uds" / "tcp".
  comm::TransportKind transport = comm::TransportKind::kMailbox;
};

/// Everything one training run needs: what data, how it is partitioned,
/// which method, and the model/sampling/cost-model knobs. The single entry
/// point for every bench, example and test.
struct RunConfig {
  Method method = Method::kBns;

  DatasetSpec dataset;        // used by run(cfg); ignored by the overloads
                              // that take a prebuilt Dataset
  PartitionSpec partition;    // ignored by the overload taking a Partitioning

  /// Model, optimizer, sampling (rate/variant/scaling), epochs, eval
  /// cadence, seed, interconnect cost model and the per-epoch observer.
  core::TrainerConfig trainer;

  /// Exchange schedule, halo cache and fabric backend.
  CommSpec comm;

  /// Sampler-specific knobs of the minibatch baselines; ignored by the
  /// partition-parallel methods.
  baselines::MinibatchConfig minibatch;

  /// CAGNET replication factor (kCagnetProxy only).
  int cagnet_c = 1;
};

/// A runnable method. `runner` receives the dataset, the partitioning
/// (nullptr for methods with needs_partition == false) and the full config.
struct MethodInfo {
  Method method = Method::kBns;
  std::string name;     // canonical id, e.g. "bns", "graph-saint"
  std::string display;  // human label, e.g. "BNS-GCN"
  bool needs_partition = false;
  std::function<RunReport(const Dataset&, const Partitioning*,
                          const RunConfig&)>
      runner;
};

/// The fixed method table, one entry per Method value.
[[nodiscard]] const std::vector<MethodInfo>& method_registry();
[[nodiscard]] const MethodInfo& method_info(Method method);
/// The method named `name`, or nullptr.
[[nodiscard]] const MethodInfo* find_method(std::string_view name);

/// The engine-level trainer config of a run: cfg.trainer itself. Nothing in
/// the library calls it; perfbench/runner.cpp still does.
[[nodiscard]] core::TrainerConfig engine_config(const RunConfig& cfg);

/// Run `cfg` end to end: build the dataset from cfg.dataset, partition per
/// cfg.partition (when the method needs one), train, and return the
/// unified report. Partitioning goes through the process-global partition
/// cache (api/partition_cache.hpp): sweeping many configs over one
/// (graph, spec) pays for the partitioner once, and
/// RunReport::partition_cache records what this run hit.
[[nodiscard]] RunReport run(const RunConfig& cfg);

/// Same, over a prebuilt dataset (partition still built per cfg.partition,
/// through the cache).
[[nodiscard]] RunReport run(const Dataset& ds, const RunConfig& cfg);

/// Same, over a prebuilt dataset and partitioning — for callers that
/// construct partitionings outside the spec vocabulary. Bypasses the
/// partition cache (the caller owns `part`).
[[nodiscard]] RunReport run(const Dataset& ds, const Partitioning& part,
                            const RunConfig& cfg);

} // namespace bnsgcn::api

#include "api/run.hpp"

#include "api/multiprocess.hpp"
#include "api/partition_cache.hpp"
#include "api/serialize.hpp"
#include "common/check.hpp"
#include "core/proxies.hpp"
#include "partition/metis_like.hpp"

namespace bnsgcn::api {

Partitioning make_partition(const Csr& graph, const PartitionSpec& spec) {
  BNSGCN_CHECK_MSG(spec.nparts >= 1, "partition spec needs nparts >= 1");
  switch (spec.kind) {
    case PartitionSpec::Kind::kMetis: {
      // The spec seed must reach the partitioner: dropping it here made
      // every kMetis spec collapse onto MetisLikeOptions' fixed default,
      // so seed sweeps silently reused one partition (and the cache key,
      // which includes the seed, would have lied about what was computed).
      MetisLikeOptions opts;
      opts.seed = spec.seed;
      return metis_like(graph, spec.nparts, opts);
    }
    case PartitionSpec::Kind::kRandom: {
      Rng rng(spec.seed);
      return random_partition(graph.n, spec.nparts, rng);
    }
    case PartitionSpec::Kind::kHash:
      return hash_partition(graph.n, spec.nparts);
    case PartitionSpec::Kind::kBfs: {
      Rng rng(spec.seed);
      return bfs_partition(graph, spec.nparts, rng);
    }
  }
  BNSGCN_CHECK_MSG(false, "unknown partition kind");
  return {};
}

namespace {

RunReport finish(RunReport report, const MethodInfo& info,
                 const Dataset& ds) {
  if (report.method.empty()) report.method = info.name;
  if (report.dataset.empty()) report.dataset = ds.name;
  return report;
}

} // namespace

const std::vector<MethodInfo>& method_registry() {
  static const std::vector<MethodInfo> methods = [] {
    std::vector<MethodInfo> r;
    r.push_back({Method::kBns, "bns", "BNS-GCN", /*needs_partition=*/true,
                 [](const Dataset& ds, const Partitioning* part,
                    const RunConfig& cfg) {
                   // The trainer (local graphs included) is built before
                   // any rank starts: a bad config fails here, and forked
                   // ranks inherit it copy-on-write. Rank 0 hands its
                   // report back as JSON on every transport; finish()
                   // names the method and dataset.
                   core::BnsTrainer trainer(ds, *part, cfg.trainer,
                                            cfg.comm);
                   return run_report_from_json_string(run_ranks_piped(
                       cfg.comm.transport, part->nparts, cfg.trainer.cost,
                       [&](comm::Fabric& fabric, PartId r) {
                         core::TrainResult result =
                             trainer.train_rank(fabric, r);
                         if (r != 0) return std::string();
                         return to_json_string(RunReport{std::move(result)});
                       }));
                 }});
    r.push_back({Method::kRocProxy, "roc-proxy", "ROC (swap proxy)",
                 /*needs_partition=*/true,
                 [](const Dataset& ds, const Partitioning* part,
                    const RunConfig& cfg) {
                   return RunReport{
                       core::run_roc_proxy(ds, *part, cfg.trainer, cfg.comm)};
                 }});
    r.push_back({Method::kCagnetProxy, "cagnet-proxy", "CAGNET proxy",
                 /*needs_partition=*/true,
                 [](const Dataset& ds, const Partitioning* part,
                    const RunConfig& cfg) {
                   return RunReport{core::run_cagnet_proxy(
                       ds, *part, cfg.trainer, cfg.cagnet_c)};
                 }});
    r.push_back({Method::kFullGraph, "full-graph", "Full-graph (1 process)",
                 /*needs_partition=*/false,
                 [](const Dataset& ds, const Partitioning*,
                    const RunConfig& cfg) {
                   return baselines::train_full_graph(ds, cfg.trainer);
                 }});
    r.push_back({Method::kNeighborSampling, "graphsage",
                 "GraphSAGE (neighbor)", /*needs_partition=*/false,
                 [](const Dataset& ds, const Partitioning*,
                    const RunConfig& cfg) {
                   return baselines::train_neighbor_sampling(ds, cfg.trainer,
                                                             cfg.minibatch);
                 }});
    r.push_back({Method::kFastGcn, "fastgcn", "FastGCN (layer)",
                 /*needs_partition=*/false,
                 [](const Dataset& ds, const Partitioning*,
                    const RunConfig& cfg) {
                   return baselines::train_layer_sampling(
                       ds, cfg.trainer, cfg.minibatch, /*ladies=*/false);
                 }});
    r.push_back({Method::kLadies, "ladies", "LADIES (layer)",
                 /*needs_partition=*/false,
                 [](const Dataset& ds, const Partitioning*,
                    const RunConfig& cfg) {
                   return baselines::train_layer_sampling(
                       ds, cfg.trainer, cfg.minibatch, /*ladies=*/true);
                 }});
    r.push_back({Method::kClusterGcn, "cluster-gcn", "ClusterGCN (subgraph)",
                 /*needs_partition=*/false,
                 [](const Dataset& ds, const Partitioning*,
                    const RunConfig& cfg) {
                   return baselines::train_cluster_gcn(ds, cfg.trainer,
                                                       cfg.minibatch);
                 }});
    r.push_back({Method::kGraphSaint, "graph-saint", "GraphSAINT (subgraph)",
                 /*needs_partition=*/false,
                 [](const Dataset& ds, const Partitioning*,
                    const RunConfig& cfg) {
                   return baselines::train_graph_saint(ds, cfg.trainer,
                                                       cfg.minibatch);
                 }});
    return r;
  }();
  return methods;
}

core::TrainerConfig engine_config(const RunConfig& cfg) {
  return cfg.trainer;
}

const MethodInfo& method_info(Method method) {
  for (const auto& info : method_registry())
    if (info.method == method) return info;
  BNSGCN_CHECK_MSG(false, "method not in the table");
  return method_registry().front();
}

const MethodInfo* find_method(std::string_view name) {
  for (const auto& info : method_registry())
    if (info.name == name) return &info;
  return nullptr;
}

RunReport run(const Dataset& ds, const Partitioning& part,
              const RunConfig& cfg) {
  const MethodInfo& info = method_info(cfg.method);
  return finish(info.runner(ds, &part, cfg), info, ds);
}

RunReport run(const Dataset& ds, const RunConfig& cfg) {
  const MethodInfo& info = method_info(cfg.method);
  if (!info.needs_partition)
    return finish(info.runner(ds, nullptr, cfg), info, ds);
  PartitionCacheStats lookup;
  const std::shared_ptr<const Partitioning> part =
      partition_cache().get(ds.graph, cfg.partition, &lookup);
  RunReport report = finish(info.runner(ds, part.get(), cfg), info, ds);
  report.partition_cache = lookup;
  return report;
}

RunReport run(const RunConfig& cfg) {
  const Dataset ds = make_dataset(cfg.dataset);
  return run(ds, cfg);
}

} // namespace bnsgcn::api

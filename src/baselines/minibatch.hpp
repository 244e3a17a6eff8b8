#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "api/report.hpp"
#include "core/trainer.hpp"
#include "graph/dataset.hpp"
#include "nn/layer.hpp"

namespace bnsgcn::baselines {

/// Sampler-specific knobs of the minibatch baselines (Section 2 families).
/// The shared model/protocol knobs (layers, hidden width, dropout, epochs,
/// eval cadence, seed) come from core::TrainerConfig so there is a single
/// source of truth; `lr` stays here because the minibatch methods use their
/// own learning-rate scale (per-batch Adam steps).
struct MinibatchConfig {
  float lr = 0.01f;            // per-batch Adam learning rate

  NodeId batch_size = 1024;    // seed nodes per minibatch
  int batches_per_epoch = 8;   // minibatch steps per epoch

  int fanout = 10;             // GraphSAGE neighbor-sampling fanout
  NodeId layer_budget = 512;   // FastGCN/LADIES per-layer sample size
  int num_clusters = 32;       // ClusterGCN METIS clusters
  int clusters_per_batch = 2;
  NodeId saint_budget = 2000;  // GraphSAINT node budget per subgraph
};

inline constexpr auto kMinibatchConfigFields = [] {
  using M = MinibatchConfig;
  return std::tuple{field("lr", &M::lr),
                    field("batch_size", &M::batch_size),
                    field("batches_per_epoch", &M::batches_per_epoch),
                    field("fanout", &M::fanout),
                    field("layer_budget", &M::layer_budget),
                    field("num_clusters", &M::num_clusters),
                    field("clusters_per_batch", &M::clusters_per_batch),
                    field("saint_budget", &M::saint_budget)};
}();

/// Whole-graph adjacency in Layer form (n_dst == n_src == n, identity node
/// order so "self features first" holds trivially).
struct FullGraphContext {
  nn::BipartiteCsr adj;
  std::vector<float> inv_deg;
};
[[nodiscard]] FullGraphContext make_full_context(const Csr& g);

/// Full-graph inference with the given layers (dropout off); returns
/// {val metric, test metric} — accuracy or micro-F1 per the dataset.
[[nodiscard]] std::pair<double, double> evaluate_full(
    const Dataset& ds, const FullGraphContext& ctx,
    std::vector<std::unique_ptr<nn::Layer>>& layers);

/// One minibatch in layered (message-flow) form: level 0 holds the input
/// nodes, level L the output nodes; every level's node list starts with the
/// next level's destinations so Layer's "self rows first" layout holds.
/// Subgraph methods (ClusterGCN / GraphSAINT) use the degenerate form where
/// every level is the same node set.
struct Batch {
  std::vector<nn::BipartiteCsr> adjs;      // L entries (level l → l+1)
  std::vector<std::vector<float>> inv_deg; // L entries
  std::vector<NodeId> input_nodes;         // level-0 global ids
  std::vector<NodeId> output_nodes;        // level-L global ids
  std::vector<NodeId> loss_rows;           // rows of output carrying loss
};

/// Shared minibatch training loop: draws `batches_per_epoch` batches per
/// epoch from `next_batch`, trains with Adam, and evaluates by full-graph
/// inference (the standard protocol for sampling-based methods). The
/// report's per-epoch breakdown splits measured wall time into compute_s
/// and sample_s; `cfg.observer` streams each finished epoch.
[[nodiscard]] api::RunReport run_minibatch_training(
    const Dataset& ds, const core::TrainerConfig& cfg,
    const MinibatchConfig& mb, const std::function<Batch(Rng&)>& next_batch);

/// Single-process full-graph training (no partitioning, no sampling): the
/// test oracle for BnsTrainer(p=1) and the "full-graph accuracy" reference.
[[nodiscard]] api::RunReport train_full_graph(const Dataset& ds,
                                              const core::TrainerConfig& cfg);

/// GraphSAGE neighbor sampling (Hamilton et al. 2017).
[[nodiscard]] api::RunReport train_neighbor_sampling(
    const Dataset& ds, const core::TrainerConfig& cfg,
    const MinibatchConfig& mb);

/// Layer sampling: FastGCN (global candidate pool) or LADIES (pool
/// restricted to the current layer's neighbor set), importance-weighted.
[[nodiscard]] api::RunReport train_layer_sampling(
    const Dataset& ds, const core::TrainerConfig& cfg,
    const MinibatchConfig& mb, bool ladies);

/// ClusterGCN (Chiang et al. 2019): METIS clusters, random cluster unions.
[[nodiscard]] api::RunReport train_cluster_gcn(const Dataset& ds,
                                               const core::TrainerConfig& cfg,
                                               const MinibatchConfig& mb);

/// GraphSAINT node sampler (Zeng et al. 2020), simplified: degree-weighted
/// node budget, induced subgraph, loss on contained train nodes.
[[nodiscard]] api::RunReport train_graph_saint(const Dataset& ds,
                                               const core::TrainerConfig& cfg,
                                               const MinibatchConfig& mb);

} // namespace bnsgcn::baselines

#pragma once

#include <vector>

#include "common/rng.hpp"
#include "graph/csr.hpp"

namespace bnsgcn::gen {

/// G(n, m) Erdős–Rényi: m undirected edges sampled uniformly.
[[nodiscard]] Csr erdos_renyi(NodeId n, EdgeId m, Rng& rng);

/// R-MAT (a,b,c,d) recursive-matrix generator — power-law, hub-heavy graphs
/// without community structure. n is rounded up to a power of two internally
/// and trimmed back.
struct RmatParams {
  double a = 0.57, b = 0.19, c = 0.19; // d = 1 - a - b - c
};
[[nodiscard]] Csr rmat(NodeId n, EdgeId m, Rng& rng, const RmatParams& p = {});

/// Degree-corrected planted-partition model — the workhorse for dataset
/// synthesis. Nodes get a power-law weight (Pareto with `skew`); each of the
/// m edges picks "intra-community" with probability `p_intra`, then samples
/// both endpoints degree-proportionally within the chosen community pair.
///
/// This reproduces the two structural properties the paper's experiments
/// rely on: heavy-tailed degrees (boundary-node explosion, Table 1/Fig. 3)
/// and clusterability (METIS-like partitions align with communities).
struct PlantedPartitionParams {
  NodeId n = 10'000;
  EdgeId m = 200'000;      // undirected edge budget
  int communities = 8;
  double p_intra = 0.9;    // probability an edge stays inside a community
  double skew = 2.5;       // Pareto shape; smaller = heavier tail
};
struct PlantedPartition {
  Csr graph;
  std::vector<int> community; // size n
};
[[nodiscard]] PlantedPartition planted_partition(
    const PlantedPartitionParams& params, Rng& rng);

/// Ring over n nodes (tests).
[[nodiscard]] Csr ring(NodeId n);

/// Star: node 0 connected to all others (tests).
[[nodiscard]] Csr star(NodeId n);

/// 2D grid graph rows x cols (tests).
[[nodiscard]] Csr grid(NodeId rows, NodeId cols);

} // namespace bnsgcn::gen

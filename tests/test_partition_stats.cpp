#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/metis_like.hpp"
#include "partition/stats.hpp"

namespace bnsgcn {
namespace {

TEST(PartitionStats, HandComputedExample) {
  // Path 0-1-2-3 split as {0,1} | {2,3}.
  CooBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const Csr g = b.build();
  Partitioning p;
  p.nparts = 2;
  p.owner = {0, 0, 1, 1};
  const auto st = compute_stats(g, p);
  EXPECT_EQ(st.inner_count[0], 2);
  EXPECT_EQ(st.inner_count[1], 2);
  // Part 0 needs node 2 (neighbor of 1); part 1 needs node 1.
  EXPECT_EQ(st.boundary_count[0], 1);
  EXPECT_EQ(st.boundary_count[1], 1);
  EXPECT_EQ(st.edge_cut, 1);
  EXPECT_EQ(st.total_volume, 2);
  // Node 1 sends to part 1; node 2 sends to part 0.
  EXPECT_EQ(st.send_volume[0], 1);
  EXPECT_EQ(st.send_volume[1], 1);
}

TEST(PartitionStats, Equation3Identity) {
  // Total volume == sum of boundary counts == sum of send volumes (Eq. 3).
  Rng rng(1);
  const Csr g = gen::erdos_renyi(2000, 16000, rng);
  const auto p = random_partition(g.n, 8, rng);
  const auto st = compute_stats(g, p);
  EdgeId bd_sum = 0, send_sum = 0;
  for (const NodeId c : st.boundary_count) bd_sum += c;
  for (const EdgeId v : st.send_volume) send_sum += v;
  EXPECT_EQ(st.total_volume, bd_sum);
  EXPECT_EQ(st.total_volume, send_sum);
}

TEST(PartitionStats, DVCappedByPartsMinusOne) {
  // Send volume counts (node, remote part) pairs: for m parts each node
  // contributes at most m-1.
  Rng rng(2);
  const Csr g = gen::erdos_renyi(500, 8000, rng);
  const auto p = random_partition(g.n, 4, rng);
  const auto st = compute_stats(g, p);
  for (PartId i = 0; i < 4; ++i) {
    EXPECT_LE(st.send_volume[static_cast<std::size_t>(i)],
              static_cast<EdgeId>(st.inner_count[static_cast<std::size_t>(i)]) * 3);
  }
}

TEST(PartitionStats, BoundaryCountBelowInnerTotal) {
  Rng rng(3);
  const Csr g = gen::erdos_renyi(1000, 4000, rng);
  const auto p = random_partition(g.n, 5, rng);
  const auto st = compute_stats(g, p);
  for (PartId i = 0; i < 5; ++i) {
    // A partition's boundary set can't exceed the nodes outside it.
    EXPECT_LE(st.boundary_count[static_cast<std::size_t>(i)],
              g.n - st.inner_count[static_cast<std::size_t>(i)]);
  }
}

TEST(PartitionStats, RandomPartitionHasMoreBoundary) {
  // The Table 8 contrast: random partitioning yields far more boundary
  // nodes than a locality-aware partitioner on a clustered graph.
  Rng rng(4);
  gen::PlantedPartitionParams pp;
  pp.n = 3000;
  pp.m = 30000;
  pp.communities = 8;
  pp.p_intra = 0.92;
  const auto planted = gen::planted_partition(pp, rng);
  const auto st_metis =
      compute_stats(planted.graph, metis_like(planted.graph, 8));
  const auto st_rand =
      compute_stats(planted.graph, random_partition(planted.graph.n, 8, rng));
  EXPECT_LT(st_metis.total_volume * 2, st_rand.total_volume);
}

TEST(PartitionStats, MaxRatio) {
  Rng rng(5);
  const Csr g = gen::erdos_renyi(400, 3000, rng);
  const auto p = random_partition(g.n, 4, rng);
  const auto st = compute_stats(g, p);
  EXPECT_GT(st.max_ratio(), 0.0);
}

TEST(PartitionStats, IsolatedPartitionHasZeroBoundary) {
  // Two disconnected cliques split exactly along components.
  CooBuilder b(8);
  for (NodeId u = 0; u < 4; ++u)
    for (NodeId v = u + 1; v < 4; ++v) b.add_edge(u, v);
  for (NodeId u = 4; u < 8; ++u)
    for (NodeId v = u + 1; v < 8; ++v) b.add_edge(u, v);
  const Csr g = b.build();
  Partitioning p;
  p.nparts = 2;
  p.owner = {0, 0, 0, 0, 1, 1, 1, 1};
  const auto st = compute_stats(g, p);
  EXPECT_EQ(st.total_volume, 0);
  EXPECT_EQ(st.edge_cut, 0);
  EXPECT_EQ(st.boundary_count[0], 0);
  EXPECT_EQ(st.boundary_count[1], 0);
}

} // namespace
} // namespace bnsgcn

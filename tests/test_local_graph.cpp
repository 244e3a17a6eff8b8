#include <gtest/gtest.h>

#include <set>

#include "core/local_graph.hpp"
#include "graph/generators.hpp"
#include "partition/metis_like.hpp"
#include "partition/stats.hpp"

namespace bnsgcn {
namespace {

using core::build_local_graphs;
using core::LocalGraph;

TEST(LocalGraph, HandBuiltPath) {
  // Path 0-1-2-3, split {0,1} | {2,3}.
  CooBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const Csr g = b.build();
  Partitioning part;
  part.nparts = 2;
  part.owner = {0, 0, 1, 1};
  const auto lgs = build_local_graphs(g, part);
  ASSERT_EQ(lgs.size(), 2u);

  const LocalGraph& a = lgs[0];
  EXPECT_EQ(a.n_inner(), 2);
  EXPECT_EQ(a.n_halo(), 1);
  EXPECT_EQ(a.halo_global[0], 2);
  EXPECT_EQ(a.halo_owner[0], 1);
  // Node 1 (local 1) must be sent to partition 1.
  ASSERT_EQ(a.send_sets[1].size(), 1u);
  EXPECT_EQ(a.send_sets[1][0], 1);
  // adj: local 0 -> {1}; local 1 -> {0, halo 2}.
  EXPECT_EQ(a.adj.degree(0), 1);
  EXPECT_EQ(a.adj.degree(1), 2);
  EXPECT_FLOAT_EQ(a.inv_full_degree[1], 0.5f);

  const LocalGraph& c = lgs[1];
  EXPECT_EQ(c.n_inner(), 2);
  EXPECT_EQ(c.halo_global[0], 1);
  ASSERT_EQ(c.send_sets[0].size(), 1u);
  EXPECT_EQ(c.inner_global[static_cast<std::size_t>(c.send_sets[0][0])], 2);
}

TEST(LocalGraph, InnerSymmetryIsRecordedFromTheGraph) {
  // A symmetric graph gives every part an inner block that is its own
  // transpose; one directed arc inside a part clears that part's flag.
  Rng rng(3);
  const Csr sym = gen::erdos_renyi(400, 3000, rng);
  const auto part = random_partition(sym.n, 3, rng);
  for (const LocalGraph& lg : build_local_graphs(sym, part)) {
    EXPECT_TRUE(lg.adj.inner_symmetric) << "part " << lg.part_id;
    EXPECT_TRUE(nn::inner_block_is_symmetric(lg.adj));
  }

  // Path 0 -> 1 -> 2 <-> 3 built with symmetrize = false, split {0,1,2} |
  // {3}: part 0 holds the one-way arcs 0 -> 1 and 1 -> 2.
  CooBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 2);
  const Csr directed = b.build({.symmetrize = false});
  Partitioning split;
  split.nparts = 2;
  split.owner = {0, 0, 0, 1};
  const auto lgs = build_local_graphs(directed, split);
  EXPECT_FALSE(lgs[0].adj.inner_symmetric);
  EXPECT_TRUE(lgs[1].adj.inner_symmetric); // {3}: no inner arcs at all
}

TEST(LocalGraph, SendRecvSymmetry) {
  // What j sends to i must be exactly i's halo owned by j, in order.
  Rng rng(1);
  const Csr g = gen::erdos_renyi(800, 6000, rng);
  const auto part = random_partition(g.n, 5, rng);
  const auto lgs = build_local_graphs(g, part);
  for (PartId i = 0; i < 5; ++i) {
    for (PartId j = 0; j < 5; ++j) {
      if (i == j) continue;
      const auto& sender = lgs[static_cast<std::size_t>(j)];
      const auto& receiver = lgs[static_cast<std::size_t>(i)];
      const auto& sent_rows =
          sender.send_sets[static_cast<std::size_t>(i)];
      const auto& halo_idx =
          receiver.recv_halo[static_cast<std::size_t>(j)];
      ASSERT_EQ(sent_rows.size(), halo_idx.size());
      for (std::size_t t = 0; t < sent_rows.size(); ++t) {
        const NodeId sent_global =
            sender.inner_global[static_cast<std::size_t>(sent_rows[t])];
        const NodeId expected_global =
            receiver.halo_global[static_cast<std::size_t>(halo_idx[t])];
        EXPECT_EQ(sent_global, expected_global);
      }
    }
  }
}

TEST(LocalGraph, BoundaryCountsMatchPartitionStats) {
  Rng rng(2);
  const Csr g = gen::rmat(1024, 8000, rng);
  const auto part = random_partition(g.n, 4, rng);
  const auto stats = compute_stats(g, part);
  const auto lgs = build_local_graphs(g, part);
  for (PartId i = 0; i < 4; ++i) {
    EXPECT_EQ(lgs[static_cast<std::size_t>(i)].n_halo(),
              stats.boundary_count[static_cast<std::size_t>(i)]);
    EXPECT_EQ(lgs[static_cast<std::size_t>(i)].n_inner(),
              stats.inner_count[static_cast<std::size_t>(i)]);
  }
}

TEST(LocalGraph, AdjacencyPreservesAllEdges) {
  // Sum of local adjacency arcs == global arcs (each arc appears exactly
  // once, in its head's owner partition).
  Rng rng(3);
  const Csr g = gen::erdos_renyi(500, 3000, rng);
  const auto part = random_partition(g.n, 3, rng);
  const auto lgs = build_local_graphs(g, part);
  EdgeId total = 0;
  for (const auto& lg : lgs) total += lg.adj.num_edges();
  EXPECT_EQ(total, g.num_arcs());
}

TEST(LocalGraph, DegreesMatchGlobal) {
  Rng rng(4);
  const Csr g = gen::erdos_renyi(300, 2500, rng);
  const auto part = random_partition(g.n, 4, rng);
  const auto lgs = build_local_graphs(g, part);
  for (const auto& lg : lgs) {
    for (NodeId lv = 0; lv < lg.n_inner(); ++lv) {
      const NodeId v = lg.inner_global[static_cast<std::size_t>(lv)];
      EXPECT_EQ(lg.adj.degree(lv), g.degree(v));
      if (g.degree(v) > 0) {
        EXPECT_FLOAT_EQ(lg.inv_full_degree[static_cast<std::size_t>(lv)],
                        1.0f / static_cast<float>(g.degree(v)));
      }
    }
  }
}

TEST(LocalGraph, SinglePartitionHasNoHalo) {
  Rng rng(5);
  const Csr g = gen::erdos_renyi(200, 1000, rng);
  Partitioning part;
  part.nparts = 1;
  part.owner.assign(200, 0);
  const auto lgs = build_local_graphs(g, part);
  EXPECT_EQ(lgs[0].n_halo(), 0);
  EXPECT_EQ(lgs[0].adj.num_edges(), g.num_arcs());
}

TEST(LocalGraph, SliceRowsAndLocalRows) {
  Matrix global{{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  const std::vector<NodeId> ids{3, 1};
  const Matrix sliced = core::slice_rows(global, ids);
  EXPECT_FLOAT_EQ(sliced.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(sliced.at(1, 0), 1.0f);

  CooBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Csr g = b.build();
  Partitioning part;
  part.nparts = 2;
  part.owner = {0, 0, 1, 1};
  const auto lgs = build_local_graphs(g, part);
  const std::vector<NodeId> split{0, 2, 3};
  const auto rows0 = core::local_rows_of(lgs[0], split);
  const auto rows1 = core::local_rows_of(lgs[1], split);
  EXPECT_EQ(rows0, (std::vector<NodeId>{0}));
  EXPECT_EQ(rows1, (std::vector<NodeId>{0, 1}));
}

class LocalGraphSweep
    : public ::testing::TestWithParam<std::tuple<PartId, int>> {};

TEST_P(LocalGraphSweep, InvariantsAcrossPartitionersAndSizes) {
  const auto [m, which] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 7 + static_cast<std::uint64_t>(which));
  const Csr g = gen::rmat(700, 5000, rng);
  Partitioning part;
  switch (which) {
    case 0: part = random_partition(g.n, m, rng); break;
    case 1: part = metis_like(g, m); break;
    default: part = bfs_partition(g, m, rng); break;
  }
  const auto lgs = build_local_graphs(g, part);
  // Every global node is inner in exactly one partition.
  std::vector<int> seen(static_cast<std::size_t>(g.n), 0);
  for (const auto& lg : lgs)
    for (const NodeId v : lg.inner_global) ++seen[static_cast<std::size_t>(v)];
  for (const int s : seen) EXPECT_EQ(s, 1);
  // Halo owners are never self; halo nodes exist in their owner's inner set.
  for (const auto& lg : lgs) {
    for (std::size_t k = 0; k < lg.halo_global.size(); ++k) {
      EXPECT_NE(lg.halo_owner[k], lg.part_id);
      const auto& owner_lg =
          lgs[static_cast<std::size_t>(lg.halo_owner[k])];
      EXPECT_TRUE(std::binary_search(owner_lg.inner_global.begin(),
                                     owner_lg.inner_global.end(),
                                     lg.halo_global[k]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocalGraphSweep,
    ::testing::Combine(::testing::Values(2, 3, 6),
                       ::testing::Values(0, 1, 2)));

} // namespace
} // namespace bnsgcn

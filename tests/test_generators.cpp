#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.hpp"

namespace bnsgcn {
namespace {

TEST(Generators, ErdosRenyiBasics) {
  Rng rng(1);
  const Csr g = gen::erdos_renyi(1000, 5000, rng);
  g.validate();
  EXPECT_EQ(g.n, 1000);
  // Dedup may remove a few duplicate pairs; stays close to 2*m arcs.
  EXPECT_GT(g.num_arcs(), 9000);
  EXPECT_LE(g.num_arcs(), 10000);
}

TEST(Generators, RmatIsSkewed) {
  Rng rng(2);
  const Csr g = gen::rmat(4096, 40000, rng);
  g.validate();
  NodeId max_deg = 0;
  for (NodeId v = 0; v < g.n; ++v) max_deg = std::max(max_deg, g.degree(v));
  const double avg = g.average_degree();
  // Hub degree should far exceed the average for RMAT's default skew.
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * avg);
}

TEST(Generators, PlantedPartitionCommunityStructure) {
  Rng rng(4);
  gen::PlantedPartitionParams p;
  p.n = 4000;
  p.m = 40000;
  p.communities = 8;
  p.p_intra = 0.9;
  const auto planted = gen::planted_partition(p, rng);
  planted.graph.validate();
  ASSERT_EQ(static_cast<NodeId>(planted.community.size()), p.n);

  // Measured intra-community edge fraction should be close to p_intra.
  EdgeId intra = 0, total = 0;
  for (NodeId v = 0; v < planted.graph.n; ++v) {
    for (const NodeId u : planted.graph.neighbors(v)) {
      if (u < v) continue;
      ++total;
      if (planted.community[static_cast<std::size_t>(u)] ==
          planted.community[static_cast<std::size_t>(v)])
        ++intra;
    }
  }
  const double frac = static_cast<double>(intra) / static_cast<double>(total);
  EXPECT_NEAR(frac, 0.9, 0.03);
}

TEST(Generators, PlantedPartitionDegreeSkew) {
  Rng rng(5);
  gen::PlantedPartitionParams p;
  p.n = 4000;
  p.m = 60000;
  p.skew = 1.8;
  const auto planted = gen::planted_partition(p, rng);
  NodeId max_deg = 0;
  for (NodeId v = 0; v < planted.graph.n; ++v)
    max_deg = std::max(max_deg, planted.graph.degree(v));
  EXPECT_GT(static_cast<double>(max_deg),
            5.0 * planted.graph.average_degree());
}

TEST(Generators, PlantedPartitionCommunityBalance) {
  Rng rng(6);
  gen::PlantedPartitionParams p;
  p.n = 1000;
  p.m = 5000;
  p.communities = 10;
  const auto planted = gen::planted_partition(p, rng);
  std::vector<int> counts(10, 0);
  for (const int c : planted.community) ++counts[static_cast<std::size_t>(c)];
  for (const int c : counts) EXPECT_EQ(c, 100);
}

TEST(Generators, Ring) {
  const Csr g = gen::ring(10);
  g.validate();
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 2);
}

TEST(Generators, Star) {
  const Csr g = gen::star(10);
  g.validate();
  EXPECT_EQ(g.degree(0), 9);
  for (NodeId v = 1; v < 10; ++v) EXPECT_EQ(g.degree(v), 1);
}

TEST(Generators, Grid) {
  const Csr g = gen::grid(3, 4);
  g.validate();
  EXPECT_EQ(g.n, 12);
  EXPECT_EQ(g.degree(0), 2);  // corner
  EXPECT_EQ(g.degree(1), 3);  // edge
  EXPECT_EQ(g.degree(5), 4);  // interior
}

TEST(Generators, Deterministic) {
  Rng a(7), b(7);
  const Csr g1 = gen::rmat(512, 2000, a);
  const Csr g2 = gen::rmat(512, 2000, b);
  EXPECT_EQ(g1.nbrs, g2.nbrs);
  EXPECT_EQ(g1.offsets, g2.offsets);
}

} // namespace
} // namespace bnsgcn

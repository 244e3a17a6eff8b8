#include <gtest/gtest.h>

#include "core/boundary_sampler.hpp"
#include "graph/generators.hpp"
#include "nn/layer.hpp"

namespace bnsgcn {
namespace {

using core::BoundarySampler;
using core::build_local_graphs;
using core::EpochDraw;
using core::SamplingVariant;

std::vector<core::LocalGraph> two_part_graph(NodeId n, EdgeId m,
                                             std::uint64_t seed) {
  Rng rng(seed);
  const Csr g = gen::erdos_renyi(n, m, rng);
  const auto part = random_partition(n, 2, rng);
  return build_local_graphs(g, part);
}

BoundarySampler::Options draw_options(SamplingVariant variant, float rate,
                                      bool unbiased_scaling = true) {
  return {.variant = variant, .rate = rate,
          .unbiased_scaling = unbiased_scaling};
}

TEST(EpochPlanner, BnsDrawSemantics) {
  const auto lgs = two_part_graph(800, 8000, 7);
  Rng rng(9);
  const EpochDraw draw =
      core::draw_epoch(lgs[0], draw_options(SamplingVariant::kBns, 0.5f), rng);
  EXPECT_EQ(draw.halo_kept.size(),
            static_cast<std::size_t>(lgs[0].n_halo()));
  EXPECT_FALSE(draw.edge_kept.has_value());  // node-level strategy
  EXPECT_FLOAT_EQ(draw.halo_scale, 2.0f);
  EXPECT_FLOAT_EQ(draw.halo_edge_scale, 1.0f);
  EXPECT_FLOAT_EQ(draw.inner_edge_scale, 1.0f);
}

TEST(EpochPlanner, BnsUnscaledDrawHasUnitHaloScale) {
  const auto lgs = two_part_graph(400, 3000, 8);
  Rng rng(10);
  EXPECT_FLOAT_EQ(
      core::draw_epoch(lgs[0], draw_options(SamplingVariant::kBns, 0.5f, false),
                       rng)
          .halo_scale,
      1.0f);
}

TEST(EpochPlanner, BoundaryEdgeKeepsHaloNodeIffAnArcSurvives) {
  const auto lgs = two_part_graph(800, 8000, 11);
  Rng rng(12);
  const EpochDraw draw = core::draw_epoch(
      lgs[0], draw_options(SamplingVariant::kBoundaryEdge, 0.3f), rng);
  ASSERT_TRUE(draw.edge_kept.has_value());
  EXPECT_FLOAT_EQ(draw.halo_scale, 1.0f);  // edge strategies scale arcs
  EXPECT_FLOAT_EQ(draw.inner_edge_scale, 1.0f);
  EXPECT_NEAR(draw.halo_edge_scale, 1.0f / 0.3f, 1e-5f);
  // Inner arcs are untouched; a halo node is kept iff one of its incident
  // arcs survived.
  std::vector<char> has_arc(static_cast<std::size_t>(lgs[0].n_halo()), 0);
  for (std::size_t e = 0; e < lgs[0].adj.nbrs.size(); ++e) {
    const NodeId u = lgs[0].adj.nbrs[e];
    if (u < lgs[0].n_inner()) {
      EXPECT_TRUE((*draw.edge_kept)[e]);
    } else if ((*draw.edge_kept)[e]) {
      has_arc[static_cast<std::size_t>(u - lgs[0].n_inner())] = 1;
    }
  }
  EXPECT_EQ(draw.halo_kept, has_arc);
}

TEST(EpochPlanner, DropEdgeScalesInnerArcsToo) {
  const auto lgs = two_part_graph(800, 8000, 13);
  Rng rng(14);
  const EpochDraw draw = core::draw_epoch(
      lgs[0], draw_options(SamplingVariant::kDropEdge, 0.5f), rng);
  ASSERT_TRUE(draw.edge_kept.has_value());
  EXPECT_FLOAT_EQ(draw.inner_edge_scale, 2.0f);
  EXPECT_FLOAT_EQ(draw.halo_edge_scale, 2.0f);
  // Some inner arcs must be dropped at q=0.5 on a graph this size.
  std::size_t dropped_inner = 0;
  for (std::size_t e = 0; e < lgs[0].adj.nbrs.size(); ++e)
    if (lgs[0].adj.nbrs[e] < lgs[0].n_inner() && !(*draw.edge_kept)[e])
      ++dropped_inner;
  EXPECT_GT(dropped_inner, 0u);
}

} // namespace
} // namespace bnsgcn

#include <gtest/gtest.h>

#include <thread>

#include "common/check.hpp"
#include "core/boundary_sampler.hpp"
#include "graph/generators.hpp"
#include "nn/layer.hpp"

namespace bnsgcn {
namespace {

using core::BoundarySampler;
using core::build_local_graphs;
using core::EpochPlan;
using core::SamplingVariant;

std::vector<core::LocalGraph> two_part_graph(NodeId n, EdgeId m,
                                             std::uint64_t seed,
                                             Partitioning* part_out) {
  Rng rng(seed);
  const Csr g = gen::erdos_renyi(n, m, rng);
  auto part = random_partition(n, 2, rng);
  auto lgs = build_local_graphs(g, part);
  if (part_out != nullptr) *part_out = std::move(part);
  return lgs;
}

/// Run one sampler per rank concurrently; returns each rank's plan.
std::vector<EpochPlan> sample_together(
    std::vector<BoundarySampler>& samplers, comm::Fabric& fabric, int tag) {
  std::vector<EpochPlan> plans(samplers.size());
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < samplers.size(); ++r) {
    threads.emplace_back([&, r] {
      plans[r] = samplers[r].sample_epoch(
          fabric.endpoint(static_cast<PartId>(r)), tag);
    });
  }
  for (auto& t : threads) t.join();
  return plans;
}

TEST(BoundarySampler, FullPlanMatchesLocalGraph) {
  const auto lgs = two_part_graph(300, 2000, 1, nullptr);
  BoundarySampler s(lgs[0], {.variant = SamplingVariant::kBns, .rate = 1.0f});
  const EpochPlan plan = s.full_plan();
  EXPECT_EQ(plan.n_kept_halo, lgs[0].n_halo());
  EXPECT_EQ(plan.adj.num_edges(), lgs[0].adj.num_edges());
  EXPECT_EQ(plan.send_rows, lgs[0].send_sets);
  EXPECT_FLOAT_EQ(plan.halo_scale, 1.0f);
  EXPECT_EQ(plan.dropped_edges, 0);
}

TEST(BoundarySampler, PlansKeepInnerSymmetryOnlyWhenEveryArcSurvives) {
  // BNS draws, the full plan and the empty plan keep every inner arc
  // unweighted, so they keep the local graph's flag; BES and DropEdge
  // draws drop and weight arcs, so they clear it.
  const auto lgs = two_part_graph(400, 4000, 12, nullptr);
  ASSERT_TRUE(lgs[0].adj.inner_symmetric);
  ASSERT_TRUE(lgs[1].adj.inner_symmetric);
  for (const auto variant :
       {SamplingVariant::kBns, SamplingVariant::kBoundaryEdge,
        SamplingVariant::kDropEdge}) {
    comm::Fabric fabric(2);
    std::vector<BoundarySampler> samplers;
    for (PartId r = 0; r < 2; ++r)
      samplers.emplace_back(
          lgs[static_cast<std::size_t>(r)],
          BoundarySampler::Options{
              .variant = variant,
              .rate = 0.5f,
              .seed = 90ull + static_cast<std::uint64_t>(r)});
    const bool keeps = variant == SamplingVariant::kBns;
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (const auto& plan : sample_together(samplers, fabric, epoch)) {
        EXPECT_EQ(plan.adj.inner_symmetric, keeps)
            << "variant " << static_cast<int>(variant);
        if (keeps) {
          EXPECT_TRUE(nn::inner_block_is_symmetric(plan.adj));
        }
      }
    }
    EXPECT_TRUE(samplers[0].full_plan().adj.inner_symmetric);
  }
  BoundarySampler none(lgs[0], {.variant = SamplingVariant::kBns,
                                .rate = 0.0f});
  EXPECT_TRUE(none.empty_plan().adj.inner_symmetric);
}

TEST(BoundarySampler, OutOfRangeRateIsRejectedBeforePlannerConstruction) {
  // Regression: an earlier constructor handed opts.rate to the draw
  // *before* the range check ran, so an invalid rate reached the 1/rate
  // scaling and the Bernoulli draws, which assume [0, 1]. Construction
  // must throw before any draw sees the value.
  const auto lgs = two_part_graph(200, 1200, 9, nullptr);
  using Options = BoundarySampler::Options;
  EXPECT_THROW(
      BoundarySampler(lgs[0],
                      Options{.variant = SamplingVariant::kBns, .rate = 1.5f}),
      CheckError);
  EXPECT_THROW(
      BoundarySampler(lgs[0], Options{.variant = SamplingVariant::kBns,
                                      .rate = -0.25f}),
      CheckError);
  // Boundary values of the valid range still construct.
  EXPECT_NO_THROW(BoundarySampler(
      lgs[0], Options{.variant = SamplingVariant::kBns, .rate = 0.0f}));
  EXPECT_NO_THROW(BoundarySampler(
      lgs[0], Options{.variant = SamplingVariant::kBns, .rate = 1.0f}));
}

TEST(BoundarySampler, EmptyPlanDropsEverything) {
  const auto lgs = two_part_graph(300, 2000, 2, nullptr);
  BoundarySampler s(lgs[0], {.variant = SamplingVariant::kBns, .rate = 0.0f});
  const EpochPlan plan = s.empty_plan();
  EXPECT_EQ(plan.n_kept_halo, 0);
  for (const auto& rows : plan.recv_slots) EXPECT_TRUE(rows.empty());
  // Only inner-inner edges survive.
  for (const NodeId u : plan.adj.nbrs) EXPECT_LT(u, lgs[0].n_inner());
}

TEST(BoundarySampler, NegotiatedPlansAreConsistent) {
  const auto lgs = two_part_graph(600, 5000, 3, nullptr);
  comm::Fabric fabric(2);
  std::vector<BoundarySampler> samplers;
  samplers.emplace_back(
      lgs[0], BoundarySampler::Options{.variant = SamplingVariant::kBns,
                                       .rate = 0.3f,
                                       .seed = 10});
  samplers.emplace_back(
      lgs[1], BoundarySampler::Options{.variant = SamplingVariant::kBns,
                                       .rate = 0.3f,
                                       .seed = 11});
  for (int epoch = 0; epoch < 5; ++epoch) {
    const auto plans = sample_together(samplers, fabric, epoch);
    // What 0 sends to 1 must match what 1 expects from 0 (and vice versa).
    EXPECT_EQ(plans[0].send_rows[1].size(), plans[1].recv_slots[0].size());
    EXPECT_EQ(plans[1].send_rows[0].size(), plans[0].recv_slots[1].size());
    for (const auto& plan : plans) {
      plan.adj.validate();
      EXPECT_EQ(plan.adj.n_src,
                plan.adj.n_dst + plan.n_kept_halo);
      EXPECT_NEAR(plan.halo_scale, 1.0f / 0.3f, 1e-5f);
    }
  }
}

TEST(BoundarySampler, KeptFractionApproachesP) {
  const auto lgs = two_part_graph(2000, 30000, 4, nullptr);
  comm::Fabric fabric(2);
  const float p = 0.25f;
  std::vector<BoundarySampler> samplers;
  for (PartId r = 0; r < 2; ++r)
    samplers.emplace_back(
        lgs[static_cast<std::size_t>(r)],
        BoundarySampler::Options{.variant = SamplingVariant::kBns,
                                 .rate = p,
                                 .seed = 20ull + static_cast<std::uint64_t>(r)});
  double kept = 0.0, total = 0.0;
  for (int epoch = 0; epoch < 20; ++epoch) {
    const auto plans = sample_together(samplers, fabric, epoch);
    for (std::size_t r = 0; r < 2; ++r) {
      kept += plans[r].n_kept_halo;
      total += lgs[r].n_halo();
    }
  }
  EXPECT_NEAR(kept / total, p, 0.02);
}

TEST(BoundarySampler, SampleVariesAcrossEpochs) {
  const auto lgs = two_part_graph(500, 4000, 5, nullptr);
  comm::Fabric fabric(2);
  std::vector<BoundarySampler> samplers;
  for (PartId r = 0; r < 2; ++r)
    samplers.emplace_back(
        lgs[static_cast<std::size_t>(r)],
        BoundarySampler::Options{.variant = SamplingVariant::kBns,
                                 .rate = 0.5f,
                                 .seed = 30ull + static_cast<std::uint64_t>(r)});
  const auto p1 = sample_together(samplers, fabric, 0);
  const auto p2 = sample_together(samplers, fabric, 1);
  // Random selection changes from epoch to epoch (Section 3.2).
  EXPECT_NE(p1[0].recv_slots, p2[0].recv_slots);
}

TEST(BoundarySampler, BesKeepsHaloNodesWithAnyKeptEdge) {
  const auto lgs = two_part_graph(500, 6000, 6, nullptr);
  comm::Fabric fabric(2);
  std::vector<BoundarySampler> samplers;
  for (PartId r = 0; r < 2; ++r)
    samplers.emplace_back(
        lgs[static_cast<std::size_t>(r)],
        BoundarySampler::Options{.variant = SamplingVariant::kBoundaryEdge,
                                 .rate = 0.5f,
                                 .seed = 40ull + static_cast<std::uint64_t>(r)});
  const auto plans = sample_together(samplers, fabric, 0);
  for (std::size_t r = 0; r < 2; ++r) {
    const auto& plan = plans[r];
    EXPECT_GT(plan.dropped_edges, 0);
    // Edge weights on surviving boundary edges are 1/q; inner edges are 1.
    ASSERT_FALSE(plan.adj.edge_scale.empty());
    const NodeId n_in = lgs[r].n_inner();
    for (std::size_t e = 0; e < plan.adj.nbrs.size(); ++e) {
      if (plan.adj.nbrs[e] < n_in) {
        EXPECT_FLOAT_EQ(plan.adj.edge_scale[e], 1.0f);
      } else {
        EXPECT_NEAR(plan.adj.edge_scale[e], 2.0f, 1e-5f);
      }
    }
    // Every kept halo slot has at least one incident edge.
    std::vector<int> incident(static_cast<std::size_t>(plan.n_kept_halo), 0);
    for (const NodeId u : plan.adj.nbrs)
      if (u >= n_in) ++incident[static_cast<std::size_t>(u - n_in)];
    for (const int c : incident) EXPECT_GT(c, 0);
  }
}

TEST(BoundarySampler, BesDropsFewerHaloNodesThanBnsAtMatchedEdgeDrop) {
  // The Table 9 mechanism: dropping boundary *edges* barely shrinks the
  // boundary *node* set, because several edges share one boundary node.
  const auto lgs = two_part_graph(1500, 30000, 7, nullptr);
  comm::Fabric fabric(2);
  const float q = 0.5f;
  std::vector<BoundarySampler> bes, bns;
  for (PartId r = 0; r < 2; ++r) {
    bes.emplace_back(
        lgs[static_cast<std::size_t>(r)],
        BoundarySampler::Options{.variant = SamplingVariant::kBoundaryEdge,
                                 .rate = q,
                                 .seed = 50ull + static_cast<std::uint64_t>(r)});
    bns.emplace_back(
        lgs[static_cast<std::size_t>(r)],
        BoundarySampler::Options{.variant = SamplingVariant::kBns,
                                 .rate = q,
                                 .seed = 60ull + static_cast<std::uint64_t>(r)});
  }
  const auto plans_bes = sample_together(bes, fabric, 0);
  const auto plans_bns = sample_together(bns, fabric, 1);
  // At the same rate, BES keeps far more boundary nodes than BNS keeps.
  EXPECT_GT(plans_bes[0].n_kept_halo,
            static_cast<NodeId>(1.3 * plans_bns[0].n_kept_halo));
}

TEST(BoundarySampler, DropEdgeScalesAllEdges) {
  const auto lgs = two_part_graph(400, 4000, 8, nullptr);
  comm::Fabric fabric(2);
  std::vector<BoundarySampler> samplers;
  for (PartId r = 0; r < 2; ++r)
    samplers.emplace_back(
        lgs[static_cast<std::size_t>(r)],
        BoundarySampler::Options{.variant = SamplingVariant::kDropEdge,
                                 .rate = 0.8f,
                                 .seed = 70ull + static_cast<std::uint64_t>(r)});
  const auto plans = sample_together(samplers, fabric, 0);
  for (const auto& plan : plans) {
    ASSERT_FALSE(plan.adj.edge_scale.empty());
    for (const float w : plan.adj.edge_scale)
      EXPECT_NEAR(w, 1.25f, 1e-5f);
    EXPECT_GT(plan.dropped_edges, 0);
  }
}

TEST(BoundarySampler, UnbiasedAggregationEstimate) {
  // E[ẑ] == z under BNS with 1/p feature scaling: simulate the two-rank
  // exchange directly and average many epochs.
  Partitioning part;
  Rng rng(99);
  const Csr g = gen::erdos_renyi(200, 1200, rng);
  part = random_partition(g.n, 2, rng);
  const auto lgs = build_local_graphs(g, part);
  Matrix x(g.n, 3);
  x.randomize_gaussian(rng, 1.0f);

  // Exact aggregation for rank 0's inner nodes.
  const auto& lg = lgs[0];
  Matrix x_src_full(lg.adj.n_src, 3);
  for (NodeId i = 0; i < lg.n_inner(); ++i)
    for (int c = 0; c < 3; ++c)
      x_src_full.at(i, c) =
          x.at(lg.inner_global[static_cast<std::size_t>(i)], c);
  for (NodeId h = 0; h < lg.n_halo(); ++h)
    for (int c = 0; c < 3; ++c)
      x_src_full.at(lg.n_inner() + h, c) =
          x.at(lg.halo_global[static_cast<std::size_t>(h)], c);
  Matrix z_exact;
  nn::mean_aggregate(lg.adj, x_src_full, lg.inv_full_degree, z_exact);

  const float p = 0.4f;
  comm::Fabric fabric(2);
  std::vector<BoundarySampler> samplers;
  for (PartId r = 0; r < 2; ++r)
    samplers.emplace_back(
        lgs[static_cast<std::size_t>(r)],
        BoundarySampler::Options{.variant = SamplingVariant::kBns,
                                 .rate = p,
                                 .seed = 80ull + static_cast<std::uint64_t>(r)});

  Matrix z_mean(z_exact.rows(), z_exact.cols());
  constexpr int kTrials = 3000;
  for (int t = 0; t < kTrials; ++t) {
    const auto plans = sample_together(samplers, fabric, t);
    const auto& plan = plans[0];
    Matrix feats(lg.n_inner() + plan.n_kept_halo, 3);
    for (NodeId i = 0; i < lg.n_inner(); ++i)
      for (int c = 0; c < 3; ++c) feats.at(i, c) = x_src_full.at(i, c);
    // Fill kept halo slots (scaled by 1/p), reading "remote" features
    // directly — the fabric payload path is exercised by the trainer tests.
    for (NodeId slot = 0; slot < plan.n_kept_halo; ++slot) {
      const NodeId halo_idx =
          plan.kept_halo_idx[static_cast<std::size_t>(slot)];
      for (int c = 0; c < 3; ++c)
        feats.at(lg.n_inner() + slot, c) =
            plan.halo_scale *
            x.at(lg.halo_global[static_cast<std::size_t>(halo_idx)], c);
    }
    Matrix z_hat;
    nn::mean_aggregate(plan.adj, feats, lg.inv_full_degree, z_hat);
    for (std::int64_t i = 0; i < z_hat.size(); ++i)
      z_mean.data()[i] += z_hat.data()[i] / kTrials;
  }
  // Mean over trials approaches the exact aggregation (CLT tolerance).
  double max_err = 0.0;
  for (std::int64_t i = 0; i < z_exact.size(); ++i)
    max_err = std::max(max_err,
                       std::abs(static_cast<double>(z_mean.data()[i]) -
                                z_exact.data()[i]));
  EXPECT_LT(max_err, 0.12);
}

} // namespace
} // namespace bnsgcn

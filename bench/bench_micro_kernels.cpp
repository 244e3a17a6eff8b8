// Micro-benchmarks (google-benchmark) for the kernels the trainer spends
// its time in: GEMM, mean aggregation, GAT's attention scores and combine,
// the halo-cache directory, boundary sampling/compaction, and the
// METIS-like partitioner.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/partition_spec.hpp"
#include "api/presets.hpp"
#include "common/thread_pool.hpp"
#include "core/boundary_sampler.hpp"
#include "core/halo_cache.hpp"
#include "core/local_graph.hpp"
#include "graph/generators.hpp"
#include "nn/gat_layer.hpp"
#include "nn/layer.hpp"
#include "partition/metis_like.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace bnsgcn;

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, 64), b(64, 64), c(n, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_nn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64 * 2);
}
BENCHMARK(BM_GemmNN)->Arg(1024)->Arg(8192);

// Phase B1's input gradient: dout (n x 64) times a 128 x 64 weight,
// transposed — the only GEMM shape without a row above or below.
void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, 64), b(128, 64), c(n, 128);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_nt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 128 * 2);
}
BENCHMARK(BM_GemmNT)->Arg(1024)->Arg(8192);

// The thread-pool sweep: the same kernels at K ∈ {1,2,4,8} lanes. K=1 rows
// are one lane of whichever GEMM kernel the host dispatches to (the serial
// fast path never touches the pool); higher-K rows add lanes.
// items_per_second is the comparison axis; outputs stay bit-identical
// across the whole sweep (the determinism contract in
// common/thread_pool.hpp), which test_ops pins.
void BM_GemmNNThreads(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const auto k = static_cast<int>(state.range(1));
  common::set_ops_threads(k);
  Rng rng(1);
  Matrix a(n, 64), b(64, 64), c(n, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_nn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  common::set_ops_threads(1);
  state.SetItemsProcessed(state.iterations() * n * 64 * 64 * 2);
}
BENCHMARK(BM_GemmNNThreads)
    ->ArgsProduct({{1024, 8192}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

void BM_GemmTNThreads(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const auto k = static_cast<int>(state.range(1));
  common::set_ops_threads(k);
  Rng rng(1);
  Matrix a(n, 256), b(n, 64), c(256, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_tn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  common::set_ops_threads(1);
  state.SetItemsProcessed(state.iterations() * n * 256 * 64 * 2);
}
BENCHMARK(BM_GemmTNThreads)
    ->ArgsProduct({{8192}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

// Phase B3's weight gradient at layer 0 of the SAGE workloads: the
// transpose of an 8192 x 128 block times 8192 x 64 output gradients.
void BM_GemmTN(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, 128), b(n, 64), c(128, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_tn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 128 * 64 * 2);
}
BENCHMARK(BM_GemmTN)->Arg(8192);

// The chunked-stream F1 transform, two ways: the old staged path (copy each
// row chunk to a scratch block, full gemm_nn on the block, copy the result
// into place) vs the row-range kernel writing the output rows directly.
// Same FLOPs; the delta is pure staging-copy overhead.
void BM_GemmChunkedStaged(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const std::int64_t chunk = 128;
  Rng rng(1);
  Matrix a(n, 64), b(64, 64), c(n, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    for (std::int64_t r0 = 0; r0 < n; r0 += chunk) {
      const std::int64_t r1 = std::min(n, r0 + chunk);
      Matrix block(r1 - r0, 64), tmp(r1 - r0, 64);
      std::copy(a.data() + r0 * 64, a.data() + r1 * 64, block.data());
      ops::gemm_nn(block, b, tmp);
      std::copy(tmp.data(), tmp.data() + tmp.size(), c.data() + r0 * 64);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64 * 2);
}
BENCHMARK(BM_GemmChunkedStaged)->Arg(1024)->Arg(8192);

void BM_GemmChunkedRows(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const std::int64_t chunk = 128;
  Rng rng(1);
  Matrix a(n, 64), b(64, 64), c(n, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    for (std::int64_t r0 = 0; r0 < n; r0 += chunk) {
      ops::gemm_nn_rows(a, b, c, r0, std::min(n, r0 + chunk));
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64 * 2);
}
BENCHMARK(BM_GemmChunkedRows)->Arg(1024)->Arg(8192);

/// An R-MAT graph with 16 arcs per node as a square adjacency (every
/// source is local), with its 1/degree normalizers.
struct RmatAdjacency {
  nn::BipartiteCsr adj;
  std::vector<float> inv;
  EdgeId arcs = 0;

  RmatAdjacency(NodeId n, Rng& rng) {
    const Csr g = gen::rmat(n, static_cast<EdgeId>(n) * 16, rng);
    adj.n_dst = g.n;
    adj.n_src = g.n;
    adj.offsets = g.offsets;
    adj.nbrs = g.nbrs;
    inv.assign(static_cast<std::size_t>(g.n), 0.0f);
    for (NodeId v = 0; v < g.n; ++v)
      if (g.degree(v) > 0) inv[static_cast<std::size_t>(v)] = 1.0f / g.degree(v);
    arcs = g.num_arcs();
  }
};

// F1 over every source, then the finish pass.
void BM_MeanAggregate(benchmark::State& state) {
  Rng rng(2);
  const RmatAdjacency r(static_cast<NodeId>(state.range(0)), rng);
  Matrix src(r.adj.n_src, 64), out;
  src.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    nn::mean_aggregate(r.adj, src, r.inv, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * r.arcs * 64);
}
BENCHMARK(BM_MeanAggregate)->Arg(4096)->Arg(32768);

// B2, the inner half of the backward scatter, at n x 64: each arc adds
// w * dout[v] into its source's row. The gradient accumulates across
// iterations, as the work does not depend on its values. `gather` sets the
// adjacency's inner_symmetric flag (the R-MAT graph is symmetric, as
// build_local_graphs would find), which runs B2 as F1's gather.
void run_backward_inner(benchmark::State& state, bool gather) {
  Rng rng(2);
  RmatAdjacency r(static_cast<NodeId>(state.range(0)), rng);
  r.adj.inner_symmetric = gather && nn::inner_block_is_symmetric(r.adj);
  if (r.adj.inner_symmetric != gather) state.SkipWithError("not symmetric");
  Matrix dout(r.adj.n_dst, 64), dinner(r.adj.n_src, 64);
  dout.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    nn::mean_aggregate_backward_inner(r.adj, dout, r.inv, r.adj.n_src, dinner);
    benchmark::DoNotOptimize(dinner.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * r.arcs * 64);
}

void BM_MeanAggregateBackwardInner(benchmark::State& state) {
  run_backward_inner(state, /*gather=*/false);
}
BENCHMARK(BM_MeanAggregateBackwardInner)->Arg(4096)->Arg(32768);

void BM_MeanAggregateBackwardInnerGather(benchmark::State& state) {
  run_backward_inner(state, /*gather=*/true);
}
BENCHMARK(BM_MeanAggregateBackwardInnerGather)->Arg(4096)->Arg(32768);

/// Rank 0's local graph in perfbench's train-* workloads: the reddit
/// preset at scale 1, METIS into 3 parts (about 8k inner rows, 0.6M arcs).
/// Built once; the first benchmark that asks pays about two seconds.
const core::LocalGraph& reddit_rank0() {
  static const std::vector<core::LocalGraph> lgs = [] {
    api::DatasetSpec spec;
    spec.custom = api::find_dataset("reddit")->make_spec(1.0);
    const Dataset ds = api::make_dataset(spec);
    return core::build_local_graphs(
        ds.graph, api::make_partition(
                      ds.graph, {.kind = api::PartitionSpec::Kind::kMetis,
                                 .nparts = 3}));
  }();
  return lgs[0];
}

// B2 at width 64 on that rank's graph, as the trainer runs it:
// build_local_graphs found its inner block symmetric, so gather:1 is the
// gather path; gather:0 clears the flag and runs the scatter.
void BM_MeanAggregateBackwardInnerRank(benchmark::State& state) {
  const core::LocalGraph& lg = reddit_rank0();
  nn::BipartiteCsr adj = lg.adj;
  if (!adj.inner_symmetric) state.SkipWithError("not symmetric");
  adj.inner_symmetric = state.range(0) != 0;
  Rng rng(2);
  Matrix dout(adj.n_dst, 64), dinner(adj.n_dst, 64);
  dout.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    nn::mean_aggregate_backward_inner(adj, dout, lg.inv_full_degree,
                                      adj.n_dst, dinner);
    benchmark::DoNotOptimize(dinner.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * adj.num_edges() * 64);
}
BENCHMARK(BM_MeanAggregateBackwardInnerRank)->Arg(0)->Arg(1)->ArgName("gather");

void BM_MeanAggregateThreads(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(1));
  common::set_ops_threads(k);
  Rng rng(2);
  const RmatAdjacency r(static_cast<NodeId>(state.range(0)), rng);
  Matrix src(r.adj.n_src, 64), out;
  src.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    nn::mean_aggregate(r.adj, src, r.inv, out);
    benchmark::DoNotOptimize(out.data());
  }
  common::set_ops_threads(1);
  state.SetItemsProcessed(state.iterations() * r.arcs * 64);
}
BENCHMARK(BM_MeanAggregateThreads)
    ->ArgsProduct({{32768}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

// Inverted dropout on a SAGE hidden layer's output, 8000 x 64 at p = 0.3:
// one generator draw per element, then the select. The input is restored
// from a copy each iteration (included in the time: one 2 MB copy).
void BM_DropoutForward(benchmark::State& state) {
  Rng rng(3);
  Matrix x0(8000, 64), x, mask;
  x0.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    x = x0;
    ops::dropout_forward(x, mask, 0.3f, rng);
    benchmark::DoNotOptimize(x.data());
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x0.size());
}
BENCHMARK(BM_DropoutForward);

// GAT's attention combine (F2c) for one head of width 64: every row adds
// its neighbours' rows and its own, each scaled by its attention weight
// (here 1/(degree + 1)). The output accumulates across iterations, as the
// work does not depend on its values.
void BM_GatCombine(benchmark::State& state) {
  Rng rng(2);
  const RmatAdjacency r(static_cast<NodeId>(state.range(0)), rng);
  Matrix wh(r.adj.n_src, 64), out(r.adj.n_dst, 64);
  wh.randomize_gaussian(rng, 1.0f);
  std::vector<float> alpha;
  for (NodeId v = 0; v < r.adj.n_dst; ++v)
    alpha.insert(alpha.end(), static_cast<std::size_t>(r.adj.degree(v)) + 1,
                 1.0f / static_cast<float>(r.adj.degree(v) + 1));
  for (auto _ : state) {
    nn::gat_combine(r.adj, alpha, wh, 0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(alpha.size()) * 64);
}
BENCHMARK(BM_GatCombine)->Arg(4096)->Arg(32768);

// GAT's attention scores and softmax (F2c) for one head: per row, gather
// its sources' scores, LeakyReLU, the max, the exps and their sum, and the
// scale. With range(1) set it also stores the LeakyReLU slopes, as
// training does; serving does not. Items are entries (arcs plus self).
void BM_GatScores(benchmark::State& state) {
  Rng rng(3);
  const RmatAdjacency r(static_cast<NodeId>(state.range(0)), rng);
  std::vector<float> s_src(static_cast<std::size_t>(r.adj.n_src));
  std::vector<float> s_dst(static_cast<std::size_t>(r.adj.n_dst));
  for (float& x : s_src) x = static_cast<float>(rng.next_gaussian());
  for (float& x : s_dst) x = static_cast<float>(rng.next_gaussian());
  const auto entries = static_cast<std::size_t>(r.adj.num_edges()) +
                       static_cast<std::size_t>(r.adj.n_dst);
  std::vector<float> alpha(entries);
  std::vector<float> slopes(state.range(1) != 0 ? entries : 0);
  for (auto _ : state) {
    nn::gat_scores(r.adj, s_src, s_dst, 0.2f, alpha, slopes);
    benchmark::DoNotOptimize(alpha.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_GatScores)
    ->ArgsProduct({{32768}, {0, 1}})
    ->ArgNames({"n", "slopes"});

// One halo-cache directory step at steady state. Each step requests a
// random keep_pct% of `universe` positions (64 lists drawn ahead, cycled,
// and stepped once each before timing). At full keep and capacity every
// request hits; at 70% of 5,000 positions against 2,600 rows the
// directory is full and a hotter newcomer evicts in most steps; at full
// keep of 3,500 positions against 2,600 rows — serving below the boundary
// set — every step misses 900 rows and never evicts (frequencies tie).
void BM_HaloCacheDirStep(benchmark::State& state) {
  const auto universe = static_cast<NodeId>(state.range(0));
  const auto capacity = static_cast<NodeId>(state.range(1));
  const auto keep_pct = static_cast<std::uint64_t>(state.range(2));
  Rng rng(5);
  std::vector<std::vector<NodeId>> lists(64);
  for (auto& list : lists)
    for (NodeId p = 0; p < universe; ++p)
      if (rng.next_u64() % 100 < keep_pct) list.push_back(p);
  core::HaloCacheDir dir(capacity);
  int epoch = 0;
  for (const auto& list : lists) (void)dir.step(list, epoch++, -1);
  std::int64_t positions = 0, stores = 0;
  for (auto _ : state) {
    const auto& list = lists[static_cast<std::size_t>(epoch) % lists.size()];
    const core::CacheStep s = dir.step(list, epoch++, -1);
    positions += static_cast<std::int64_t>(list.size());
    stores += static_cast<std::int64_t>(
        std::count(s.action.begin(), s.action.end(),
                   core::CacheAction::kMissStore));
    benchmark::DoNotOptimize(s.slot.data());
  }
  state.SetItemsProcessed(positions);
  // A label, not a user counter: google-benchmark's CSV reporter aborts
  // on a counter that earlier benchmarks in the run did not report.
  state.SetLabel("stores_per_step=" +
                 std::to_string(stores / static_cast<std::int64_t>(
                                             state.iterations())));
}
BENCHMARK(BM_HaloCacheDirStep)
    ->Args({7000, 7000, 100})
    ->Args({5000, 2600, 70})
    ->Args({3500, 2600, 100})
    ->ArgNames({"universe", "capacity", "keep_pct"});

void BM_EpochPlannerDraw(benchmark::State& state) {
  // Cost of one epoch's BNS draw alone (no compaction, no negotiation).
  Rng rng(5);
  const Csr g = gen::rmat(16384, 200000, rng);
  const auto part = random_partition(g.n, 2, rng);
  const auto lgs = core::build_local_graphs(g, part);
  const core::BoundarySampler::Options opts{
      .variant = core::SamplingVariant::kBns, .rate = 0.1f};
  Rng draw_rng(6);
  for (auto _ : state) {
    auto draw = core::draw_epoch(lgs[0], opts, draw_rng);
    benchmark::DoNotOptimize(draw.halo_kept.data());
  }
}
BENCHMARK(BM_EpochPlannerDraw);

void BM_BoundarySamplerCompaction(benchmark::State& state) {
  Rng rng(3);
  const Csr g = gen::rmat(16384, 200000, rng);
  const auto part = random_partition(g.n, 2, rng);
  const auto lgs = core::build_local_graphs(g, part);
  core::BoundarySampler sampler(
      lgs[0], {.variant = core::SamplingVariant::kBns, .rate = 0.1f});
  // Compaction only (the negotiation needs a fabric); empty_plan exercises
  // the same CSR-rebuild path at the maximum drop rate.
  for (auto _ : state) {
    auto plan = sampler.empty_plan();
    benchmark::DoNotOptimize(plan.adj.nbrs.data());
  }
}
BENCHMARK(BM_BoundarySamplerCompaction);

void BM_MetisLike(benchmark::State& state) {
  Rng rng(4);
  gen::PlantedPartitionParams pp;
  pp.n = static_cast<NodeId>(state.range(0));
  pp.m = static_cast<EdgeId>(pp.n) * 12;
  pp.communities = 8;
  const auto planted = gen::planted_partition(pp, rng);
  for (auto _ : state) {
    auto part = metis_like(planted.graph, 8);
    benchmark::DoNotOptimize(part.owner.data());
  }
}
BENCHMARK(BM_MetisLike)->Arg(8192)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

// Serving-path determinism and shutdown contracts (docs/ARCHITECTURE.md
// §10). The forward-only engine reuses the trainer's split-phase exchange
// verbatim, so served logits must be bit-identical across every axis that
// training is bit-identical across — transport (mailbox vs forked UDS
// processes), overlap mode, halo cache on/off — and additionally across
// request batching: the query stream is flat, so any (batch_size,
// num_batches) split of the same total serves the same queries in the
// same order and must produce the same bits.

#include <gtest/gtest.h>

#include <unistd.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "api/serve.hpp"
#include "partition/metis_like.hpp"

namespace bnsgcn {
namespace {

using comm::TimingSource;
using comm::TransportKind;

Dataset small_dataset(std::uint64_t seed = 71) {
  SyntheticSpec spec;
  spec.name = "serve-test";
  spec.n = 600;
  spec.m = 6000;
  spec.communities = 4;
  spec.num_classes = 4;
  spec.feat_dim = 12;
  spec.p_intra = 0.9;
  spec.feature_noise = 1.0;
  spec.seed = seed;
  return make_synthetic(spec);
}

api::RunConfig base_config(core::ModelKind model) {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 4;
  cfg.trainer.seed = 9;
  cfg.trainer.sample_rate = 1.0f;
  cfg.trainer.model = model;
  cfg.trainer.gat_heads = model == core::ModelKind::kGat ? 2 : 1;
  return cfg;
}

api::ServeConfig serve_config(int batch_size, int num_batches) {
  api::ServeConfig scfg;
  scfg.batch_size = batch_size;
  scfg.num_batches = num_batches;
  scfg.seed = 2024;
  scfg.record_logits = true;
  return scfg;
}

void expect_same_bits(const core::ServeResult& a, const core::ServeResult& b,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.predictions, b.predictions);
  ASSERT_EQ(a.logits.size(), b.logits.size());
  for (std::size_t i = 0; i < a.logits.size(); ++i)
    ASSERT_EQ(a.logits[i], b.logits[i]) << "logit " << i;
}

TEST(Serve, BatchSizeInvariantBitwise) {
  // The same 16-query stream served as 16×1, 4×4 and 1×16 batches must
  // produce identical bits: one full-graph forward answers each batch, and
  // the forward does not depend on which queries ride it.
  const Dataset ds = small_dataset();
  const auto part = metis_like(ds.graph, 4);
  for (const auto model : {core::ModelKind::kSage, core::ModelKind::kGat}) {
    const auto cfg = base_config(model);
    const auto one = api::serve(ds, part, cfg, serve_config(1, 16));
    const auto four = api::serve(ds, part, cfg, serve_config(4, 4));
    const auto sixteen = api::serve(ds, part, cfg, serve_config(16, 1));
    ASSERT_EQ(one.total_queries(), 16);
    expect_same_bits(four, one,
                     model == core::ModelKind::kGat ? "gat 4x4 vs 1x16"
                                                    : "sage 4x4 vs 1x16");
    expect_same_bits(sixteen, one,
                     model == core::ModelKind::kGat ? "gat 16x1 vs 1x16"
                                                    : "sage 16x1 vs 1x16");
  }
}

TEST(Serve, TransportInvariantBitwise) {
  // Mailbox (in-process threads, simulated timing) vs UDS (one forked OS
  // process per rank, measured timing): identical bits, different clocks.
  // The UDS logits additionally cross the report pipe as JSON, pinning the
  // %.17g float round-trip.
  const Dataset ds = small_dataset(73);
  const auto part = metis_like(ds.graph, 2);
  for (const auto model : {core::ModelKind::kSage, core::ModelKind::kGat}) {
    auto cfg = base_config(model);
    const auto scfg = serve_config(4, 3);
    cfg.comm.transport = TransportKind::kMailbox;
    const auto mbox = api::serve(ds, part, cfg, scfg);
    cfg.comm.transport = TransportKind::kUds;
    const auto uds = api::serve(ds, part, cfg, scfg);
    expect_same_bits(uds, mbox,
                     model == core::ModelKind::kGat ? "gat uds vs mailbox"
                                                    : "sage uds vs mailbox");
    EXPECT_EQ(mbox.timing, TimingSource::kSimulated);
    EXPECT_EQ(uds.timing, TimingSource::kMeasured);
  }
}

TEST(Serve, OverlapModeInvariantBitwise) {
  // The serve forward inherits the trainer's mode contract: blocking,
  // bulk and stream execute the identical fp instruction stream.
  const Dataset ds = small_dataset(79);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage);
  cfg.comm.overlap = core::OverlapMode::kBlocking;
  const auto blocking = api::serve(ds, part, cfg, serve_config(4, 3));
  cfg.comm.overlap = core::OverlapMode::kStream;
  cfg.comm.inner_chunk_rows = 32;
  const auto stream = api::serve(ds, part, cfg, serve_config(4, 3));
  expect_same_bits(stream, blocking, "stream+chunked vs blocking");
}

TEST(Serve, HaloCacheInvariantBitwiseAndWarm) {
  // cache_staleness == 0: only the epoch-invariant layer-0 features cache,
  // so cached serving is bit-identical to uncached — and the request
  // batches after the first run warm (hits > 0, bytes saved > 0).
  const Dataset ds = small_dataset(83);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage);
  const auto cold = api::serve(ds, part, cfg, serve_config(4, 4));
  cfg.comm.cache_mb = 4;
  const auto cached = api::serve(ds, part, cfg, serve_config(4, 4));
  expect_same_bits(cached, cold, "cache_mb=4 vs cache off");
  EXPECT_EQ(cold.cache_hit_rows(), 0);
  EXPECT_GT(cached.cache_hit_rows(), 0);
  EXPECT_GT(cached.cache_bytes_saved(), 0);
  // Batch 0 is the cold fill; every later batch re-requests the same
  // layer-0 boundary rows and must hit.
  ASSERT_EQ(cached.batches.size(), 4u);
  EXPECT_EQ(cached.batches[0].cache_hit_rows, 0);
  for (std::size_t b = 1; b < cached.batches.size(); ++b)
    EXPECT_GT(cached.batches[b].cache_hit_rows, 0) << "batch " << b;

  // Staleness is a training-only knob: the serve engine clamps it to 0
  // (weights are frozen). A config carrying staleness > 0 trains with
  // stale halos — different weights, different logits — but its serve
  // loop must run the exact staleness-0 cache schedule: the structural
  // counters (pure functions of positions and capacity, not of weights)
  // must match the staleness-0 serve batch for batch. Unclamped, the
  // deeper layers would also cache and inflate hits and bytes saved.
  cfg.comm.cache_staleness = 2;
  const auto stale = api::serve(ds, part, cfg, serve_config(4, 4));
  ASSERT_EQ(stale.batches.size(), cached.batches.size());
  for (std::size_t b = 0; b < stale.batches.size(); ++b) {
    EXPECT_EQ(stale.batches[b].cache_hit_rows,
              cached.batches[b].cache_hit_rows)
        << "batch " << b;
    EXPECT_EQ(stale.batches[b].cache_miss_rows,
              cached.batches[b].cache_miss_rows)
        << "batch " << b;
    EXPECT_EQ(stale.batches[b].bytes_saved, cached.batches[b].bytes_saved)
        << "batch " << b;
  }
  EXPECT_EQ(stale.queries, cached.queries);
}

TEST(Serve, OneEngineServesItsTrainingRepeatably) {
  // One engine trains once and then serves twice, each time on a fresh
  // mailbox fabric: the serve ranks only read the engine (the trained
  // parameters, the local graphs), so both serves are bit-identical — and
  // identical to api::serve of the same config, which builds, trains and
  // serves one engine of its own. The cache is on so that every serve also
  // starts from cold halo-cache directories.
  const Dataset ds = small_dataset(87);
  const auto part = metis_like(ds.graph, 3);
  for (const auto model : {core::ModelKind::kSage, core::ModelKind::kGat}) {
    SCOPED_TRACE(model == core::ModelKind::kGat ? "gat" : "sage");
    auto cfg = base_config(model);
    cfg.comm.cache_mb = 4;
    const auto scfg = serve_config(4, 3);
    core::BnsTrainer engine(ds, part, cfg.trainer, cfg.comm);
    (void)engine.train();
    const auto serve_once = [&] {
      comm::Fabric fabric(part.nparts, cfg.trainer.cost);
      core::ServeResult result;
      comm::run_ranks(fabric, [&](PartId r) {
        core::ServeResult local = engine.serve_rank(fabric, r, scfg);
        if (r == 0) result = std::move(local);
      });
      return result;
    };
    const core::ServeResult first = serve_once();
    const core::ServeResult second = serve_once();
    ASSERT_EQ(first.queries.size(), 12u);
    expect_same_bits(second, first, "second serve vs first");
    expect_same_bits(api::serve(ds, part, cfg, scfg), first,
                     "api::serve vs serve_rank");
    EXPECT_GT(first.cache_hit_rows(), 0);
  }
}

TEST(Serve, ServeRankBeforeTrainingThrows) {
  // The engine serves only parameters it trained: before train() there
  // are none, and serve_rank says so before it touches the fabric.
  const Dataset ds = small_dataset(91);
  const auto part = metis_like(ds.graph, 2);
  const auto cfg = base_config(core::ModelKind::kSage);
  const core::BnsTrainer engine(ds, part, cfg.trainer, cfg.comm);
  comm::Fabric fabric(part.nparts, cfg.trainer.cost);
  EXPECT_THROW((void)engine.serve_rank(fabric, 0, serve_config(4, 1)),
               CheckError);
}

TEST(Serve, PredictionsAreLearned) {
  // Semantic sanity on top of the bit-level pins: the served predictions
  // come from trained weights, so on the easy synthetic communities they
  // must beat chance (1/4) by a wide margin.
  const Dataset ds = small_dataset(89);
  const auto part = metis_like(ds.graph, 2);
  auto cfg = base_config(core::ModelKind::kSage);
  cfg.trainer.epochs = 30;
  const auto report = api::serve(ds, part, cfg, serve_config(32, 4));
  ASSERT_EQ(report.predictions.size(), report.queries.size());
  int correct = 0;
  for (std::size_t i = 0; i < report.queries.size(); ++i) {
    const auto label =
        ds.labels[static_cast<std::size_t>(report.queries[i])];
    if (report.predictions[i] == label) ++correct;
  }
  const double acc =
      static_cast<double>(correct) / static_cast<double>(report.queries.size());
  EXPECT_GT(acc, 0.5) << "served predictions at chance level";
}

TEST(Serve, ReportJsonRoundTrip) {
  // Field-complete round-trip, logits bitwise (RunReport conventions).
  const Dataset ds = small_dataset(97);
  const auto part = metis_like(ds.graph, 2);
  const auto report =
      api::serve(ds, part, base_config(core::ModelKind::kSage),
                 serve_config(4, 2));
  const auto back =
      api::serve_report_from_json_string(api::to_json_string(report));
  EXPECT_EQ(back.method, report.method);
  EXPECT_EQ(back.dataset, report.dataset);
  EXPECT_EQ(back.batch_size, report.batch_size);
  EXPECT_EQ(back.num_batches, report.num_batches);
  EXPECT_EQ(back.num_classes, report.num_classes);
  EXPECT_EQ(back.queries, report.queries);
  EXPECT_EQ(back.predictions, report.predictions);
  EXPECT_EQ(back.logits, report.logits);
  EXPECT_EQ(back.train_wall_s, report.train_wall_s);
  EXPECT_EQ(back.serve_wall_s, report.serve_wall_s);
  EXPECT_EQ(back.timing, report.timing);
  ASSERT_EQ(back.batches.size(), report.batches.size());
  for (std::size_t i = 0; i < report.batches.size(); ++i) {
    EXPECT_EQ(back.batches[i].latency_s, report.batches[i].latency_s);
    EXPECT_EQ(back.batches[i].comm_s, report.batches[i].comm_s);
    EXPECT_EQ(back.batches[i].feature_bytes, report.batches[i].feature_bytes);
    EXPECT_EQ(back.batches[i].control_bytes, report.batches[i].control_bytes);
  }

  // ServeConfig round-trips through its own schema.
  api::ServeConfig scfg = serve_config(7, 3);
  const auto scfg_back =
      api::serve_config_from_json_string(api::to_json_string(scfg));
  EXPECT_EQ(scfg_back.batch_size, scfg.batch_size);
  EXPECT_EQ(scfg_back.num_batches, scfg.num_batches);
  EXPECT_EQ(scfg_back.seed, scfg.seed);
  EXPECT_EQ(scfg_back.record_logits, scfg.record_logits);
}

TEST(Serve, LatencyPercentilesUseNearestRank) {
  // Nearest rank: the ceil(p*n)-th smallest latency. p50 of 7 batches is
  // the 4th, p99 of 7 or 8 is the maximum.
  const auto report_of = [](int n) {
    api::ServeReport r;
    for (int i = n; i >= 1; --i) { // unsorted on purpose
      core::ServeBatchStats b;
      b.latency_s = i;
      r.batches.push_back(b);
    }
    return r;
  };
  const auto seven = report_of(7);
  EXPECT_DOUBLE_EQ(seven.p50_latency_s(), 4.0);
  EXPECT_DOUBLE_EQ(seven.p99_latency_s(), 7.0);
  const auto eight = report_of(8);
  EXPECT_DOUBLE_EQ(eight.p50_latency_s(), 4.0);
  EXPECT_DOUBLE_EQ(eight.p99_latency_s(), 8.0);
  EXPECT_DOUBLE_EQ(eight.latency_percentile_s(0.0), 1.0);
  EXPECT_DOUBLE_EQ(eight.latency_percentile_s(1.0), 8.0);
}

TEST(Serve, MailboxDeadRankUnwindsMidStream) {
  // One rank dies before batch 0; sibling rank threads blocked in the
  // serve exchange must unwind via the fabric shutdown, and serve() must
  // name the root cause. The alarm turns a regression into a loud
  // SIGALRM instead of a silent CI timeout.
  const Dataset ds = small_dataset(101);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage);
  auto scfg = serve_config(4, 3);
  scfg.fail_rank = 1;
  alarm(180);
  try {
    (void)api::serve(ds, part, cfg, scfg);
    FAIL() << "dead serving rank went unnoticed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected serve failure"),
              std::string::npos)
        << e.what();
  }
  alarm(0);
}

TEST(Serve, UdsDeadRankSurfacesCleanErrorNamingRank) {
  // Same injection through the forked UDS runtime: the dead rank's
  // process unwind closes its sockets, peers error out with
  // ShutdownError, and the parent names the failed rank with its own
  // message, not the peers that unwound after it.
  const Dataset ds = small_dataset(103);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage);
  cfg.comm.transport = TransportKind::kUds;
  auto scfg = serve_config(4, 3);
  scfg.fail_rank = 1;
  alarm(180);
  try {
    (void)api::serve(ds, part, cfg, scfg);
    FAIL() << "dead serving rank went unnoticed";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("rank 1", 0), 0u) << msg;
    EXPECT_NE(msg.find("injected serve failure: rank 1"), std::string::npos)
        << msg;
  }
  alarm(0);
}

} // namespace
} // namespace bnsgcn

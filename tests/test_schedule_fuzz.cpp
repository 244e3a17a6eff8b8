// Schedule-fuzz harness: randomized bit-exact parity across the whole
// execution-schedule space. With three overlap modes × F1 chunking ×
// cross-layer backward deferral × arbitrary peer-arrival orders × kernel
// thread-pool lane counts, the
// execution paths multiply far beyond what hand-enumerated cases cover;
// this harness draws random points of that space from a seeded RNG and
// asserts each one trains bit-identically to the blocking, unchunked,
// unshuffled baseline — losses, eval scores and byte counts all exact
// (gradients are pinned transitively: any gradient divergence moves the
// Adam trajectory and shows up in the next epoch's loss bits).
//
// Every failure prints the draw's reproducing seed and full config line;
// re-running with BNSGCN_FUZZ_SEED=<seed> BNSGCN_FUZZ_ITERS=1 (or
// --fuzz-seed=<seed> --fuzz-iters=1) replays exactly that draw.
//
// Knobs (CLI wins over environment, both optional):
//   --fuzz-iters=N / BNSGCN_FUZZ_ITERS  randomized draws (default 6)
//   --fuzz-seed=S  / BNSGCN_FUZZ_SEED   sweep seed (default 20260729)

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "comm/fabric.hpp"
#include "core/trainer.hpp"
#include "graph/dataset.hpp"
#include "partition/metis_like.hpp"

namespace bnsgcn {
namespace {

using core::BnsTrainer;
using core::ExchangeSpec;
using core::ModelKind;
using core::OverlapMode;
using core::SamplingVariant;
using core::TrainerConfig;
using core::TrainResult;

struct FuzzOptions {
  std::uint64_t seed = 20260729;
  int iters = 6;
};

FuzzOptions g_fuzz; // set by main() below, before RUN_ALL_TESTS

/// One drawn point of the schedule space.
struct Draw {
  std::uint64_t seed = 0; // reproduces this draw alone
  PartId nparts = 2;
  ModelKind model = ModelKind::kSage;
  OverlapMode mode = OverlapMode::kBlocking;
  NodeId chunk = 0;
  std::uint64_t shuffle = 0;
  float sample_rate = 1.0f;
  SamplingVariant variant = SamplingVariant::kBns;
  int num_layers = 2;
  std::uint64_t model_seed = 7;
  int threads = 1;
  std::int64_t cache_mb = 0;
  int cache_staleness = 0;

  [[nodiscard]] std::string describe() const {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "seed=%llu nparts=%d model=%s mode=%s chunk=%d shuffle=%llu "
        "p=%.2f variant=%d layers=%d model_seed=%llu threads=%d "
        "cache_mb=%lld staleness=%d",
        static_cast<unsigned long long>(seed), nparts,
        model == ModelKind::kGat ? "gat" : "sage",
        mode == OverlapMode::kBlocking
            ? "blocking"
            : (mode == OverlapMode::kBulk ? "bulk" : "stream"),
        chunk, static_cast<unsigned long long>(shuffle), sample_rate,
        static_cast<int>(variant), num_layers,
        static_cast<unsigned long long>(model_seed), threads,
        static_cast<long long>(cache_mb), cache_staleness);
    return buf;
  }
};

Draw draw_from_seed(std::uint64_t seed) {
  Rng rng(seed);
  Draw d;
  d.seed = seed;
  d.nparts = static_cast<PartId>(rng.next_int(2, 8));
  d.model = rng.next_bool(0.5) ? ModelKind::kGat : ModelKind::kSage;
  d.mode = rng.next_bool(0.5) ? OverlapMode::kStream : OverlapMode::kBulk;
  // Chunk sizes from pathological (1 row) through typical to
  // larger-than-the-partition (one chunk after all); 0 = unchunked.
  const NodeId chunks[] = {0, 1, 3, 17, 64, 100000};
  d.chunk = chunks[rng.next_below(6)];
  // Arrival shuffle only perturbs nonblocking probes, i.e. the stream
  // poll loop; draw it for every mode anyway — it must be harmless.
  d.shuffle = rng.next_u64() | 1; // nonzero
  const float rates[] = {0.3f, 0.7f, 1.0f};
  d.sample_rate = rates[rng.next_below(3)];
  const double vr = rng.next_double();
  d.variant = vr < 0.70 ? SamplingVariant::kBns
              : vr < 0.85 ? SamplingVariant::kDropEdge
                          : SamplingVariant::kBoundaryEdge;
  d.num_layers = static_cast<int>(rng.next_int(2, 3));
  d.model_seed = rng.next_int(1, 1000);
  // Kernel thread-pool lanes per rank, a fourth schedule axis: pool ×
  // overlap-mode × chunk-size × arrival-order must stay bit-exact vs the
  // single-threaded blocking baseline. Drawn past the core count on
  // purpose (with the hardware clamp bypassed below) so lanes genuinely
  // interleave even on a one-core CI box.
  const int thread_counts[] = {1, 2, 3, 4};
  d.threads = thread_counts[rng.next_below(4)];
  // Halo-cache axis (docs/ARCHITECTURE.md §9): size 0 (off) half the time,
  // else a small/large budget; staleness 0 (exact, layer-0 only) biased,
  // with positive bounds exercising the deeper-layer refresh schedule.
  // Both sides of a parity pair run the SAME cache config — the property
  // under test is schedule-invariance of the cache decisions themselves.
  const std::int64_t cache_sizes[] = {0, 0, 1, 4};
  d.cache_mb = cache_sizes[rng.next_below(4)];
  const int stalenesses[] = {0, 0, 1, 2};
  d.cache_staleness = stalenesses[rng.next_below(4)];
  return d;
}

const Dataset& fuzz_dataset() {
  static const Dataset ds = [] {
    SyntheticSpec spec;
    spec.name = "schedule-fuzz";
    spec.n = 700;
    spec.m = 6000;
    spec.communities = 6;
    spec.num_classes = 6;
    spec.feat_dim = 12;
    spec.p_intra = 0.9;
    spec.feature_noise = 1.2;
    spec.seed = 4242;
    return make_synthetic(spec);
  }();
  return ds;
}

const Partitioning& fuzz_partition(PartId nparts) {
  static std::map<PartId, Partitioning> cache;
  auto it = cache.find(nparts);
  if (it == cache.end())
    it = cache.emplace(nparts, metis_like(fuzz_dataset().graph, nparts)).first;
  return it->second;
}

TrainerConfig config_of(const Draw& d) {
  TrainerConfig cfg;
  cfg.num_layers = d.num_layers;
  cfg.hidden = 16;
  cfg.model = d.model;
  cfg.gat_heads = d.model == ModelKind::kGat ? 2 : 1;
  cfg.dropout = 0.25f; // exercises the RNG schedule across paths
  cfg.epochs = 3;
  cfg.eval_every = 2;
  cfg.seed = d.model_seed;
  cfg.sample_rate = d.sample_rate;
  cfg.variant = d.variant;
  cfg.threads = d.threads;
  // Run the drawn lane count as-is even where nparts × threads exceeds the
  // machine: the point is schedule coverage, not speed.
  cfg.threads_oversubscribe = true;
  return cfg;
}

ExchangeSpec spec_of(const Draw& d) {
  return {.overlap = d.mode,
          .inner_chunk_rows = d.chunk,
          .cache_mb = d.cache_mb,
          .cache_staleness = d.cache_staleness};
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-exact comparison of a variant run against its blocking baseline.
/// Everything deterministic must match exactly; on the first divergence
/// the draw's reproducing line is emitted through ADD_FAILURE.
void expect_parity(const TrainResult& base, const TrainResult& got,
                   const Draw& d) {
  const auto fail = [&d](const std::string& what) {
    ADD_FAILURE() << "schedule divergence (" << what
                  << ") — reproduce with: " << d.describe();
  };
  if (base.train_loss.size() != got.train_loss.size())
    return fail("epoch count");
  for (std::size_t e = 0; e < base.train_loss.size(); ++e) {
    if (!bits_equal(base.train_loss[e], got.train_loss[e]))
      return fail("train_loss epoch " + std::to_string(e));
  }
  if (!bits_equal(base.final_val, got.final_val)) return fail("final_val");
  if (!bits_equal(base.final_test, got.final_test)) return fail("final_test");
  if (base.curve.size() != got.curve.size()) return fail("curve length");
  for (std::size_t i = 0; i < base.curve.size(); ++i) {
    if (!bits_equal(base.curve[i].val, got.curve[i].val) ||
        !bits_equal(base.curve[i].test, got.curve[i].test))
      return fail("curve point " + std::to_string(i));
  }
  if (base.epochs.size() != got.epochs.size()) return fail("breakdown count");
  for (std::size_t i = 0; i < base.epochs.size(); ++i) {
    if (base.epochs[i].feature_bytes != got.epochs[i].feature_bytes)
      return fail("feature_bytes epoch " + std::to_string(i));
    if (!bits_equal(base.epochs[i].comm_s, got.epochs[i].comm_s))
      return fail("comm_s epoch " + std::to_string(i));
    // The per-peer tail is a pure function of the sampled exchange sets.
    if (!bits_equal(base.epochs[i].comm_tail_s, got.epochs[i].comm_tail_s))
      return fail("comm_tail_s epoch " + std::to_string(i));
    // Cache decisions step at post time from structural position lists, so
    // hit/miss/saved counters must be schedule-invariant too.
    if (base.epochs[i].cache_hit_rows != got.epochs[i].cache_hit_rows)
      return fail("cache_hit_rows epoch " + std::to_string(i));
    if (base.epochs[i].bytes_saved != got.epochs[i].bytes_saved)
      return fail("bytes_saved epoch " + std::to_string(i));
  }
}

/// Loss-only bit parity: used to pin a staleness-0 cached run against the
/// same draw with the cache off (bytes legitimately differ there).
void expect_loss_parity(const TrainResult& base, const TrainResult& got,
                        const Draw& d) {
  const auto fail = [&d](const std::string& what) {
    ADD_FAILURE() << "cache-vs-uncached divergence (" << what
                  << ") — reproduce with: " << d.describe();
  };
  if (base.train_loss.size() != got.train_loss.size())
    return fail("epoch count");
  for (std::size_t e = 0; e < base.train_loss.size(); ++e) {
    if (!bits_equal(base.train_loss[e], got.train_loss[e]))
      return fail("train_loss epoch " + std::to_string(e));
  }
  if (!bits_equal(base.final_val, got.final_val)) return fail("final_val");
  if (!bits_equal(base.final_test, got.final_test)) return fail("final_test");
}

/// Train the draw on a mailbox fabric, one thread per rank. A nonzero
/// `shuffle` holds each deposited message back for a seeded-pseudorandom
/// number of nonblocking probes (comm::Fabric::enable_delivery_shuffle),
/// scrambling the completion order the streaming poll loop observes.
TrainResult run_draw(const Draw& d, bool baseline) {
  TrainerConfig cfg = config_of(d);
  ExchangeSpec xs = spec_of(d);
  std::uint64_t shuffle = d.shuffle;
  if (baseline) {
    xs.overlap = OverlapMode::kBlocking;
    xs.inner_chunk_rows = 0;
    shuffle = 0;
    cfg.threads = 1;
  }
  BnsTrainer trainer(fuzz_dataset(), fuzz_partition(d.nparts), cfg, xs);
  comm::Fabric fabric(d.nparts, cfg.cost);
  if (shuffle != 0) fabric.enable_delivery_shuffle(shuffle);
  TrainResult result;
  comm::run_ranks(fabric, [&](PartId r) {
    TrainResult local = trainer.train_rank(fabric, r);
    if (r == 0) result = std::move(local);
  });
  return result;
}

TEST(ScheduleFuzz, RandomizedSweep) {
  Rng sweep(g_fuzz.seed);
  for (int iter = 0; iter < g_fuzz.iters; ++iter) {
    const Draw d = draw_from_seed(sweep.next_u64());
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + d.describe());
    const TrainResult base = run_draw(d, /*baseline=*/true);
    const TrainResult got = run_draw(d, /*baseline=*/false);
    expect_parity(base, got, d);
    // Exact cache (staleness 0): additionally pin the cached baseline's
    // losses against the identical run with the cache off — the cache must
    // be invisible to the numerics, not merely schedule-invariant.
    if (d.cache_mb > 0 && d.cache_staleness == 0) {
      Draw plain = d;
      plain.cache_mb = 0;
      const TrainResult uncached = run_draw(plain, /*baseline=*/true);
      expect_loss_parity(uncached, base, d);
    }
  }
}

TEST(ScheduleFuzz, PinnedCornerMatrix) {
  // A deterministic mini-matrix that always runs regardless of the sweep
  // knobs: both models × both pipelined modes × an off-by-one chunk and a
  // larger-than-partition chunk, under a fixed arrival shuffle, at a
  // partition count where every rank has several peers.
  for (const ModelKind model : {ModelKind::kSage, ModelKind::kGat}) {
    Draw d;
    d.seed = 1; // describe() placeholder; the fields below pin the draw
    d.nparts = 4;
    d.model = model;
    d.sample_rate = 0.5f;
    d.num_layers = 3;
    d.model_seed = 11;
    const TrainResult base = run_draw(d, /*baseline=*/true);
    for (const OverlapMode mode :
         {OverlapMode::kBulk, OverlapMode::kStream}) {
      for (const NodeId chunk : {1, 37, 1 << 20}) {
        d.mode = mode;
        d.chunk = chunk;
        d.shuffle = 0xFADEDBEEFULL;
        d.threads = chunk == 37 ? 3 : 2; // pool always on in the corners
        SCOPED_TRACE(d.describe());
        const TrainResult got = run_draw(d, /*baseline=*/false);
        expect_parity(base, got, d);
      }
    }
  }
}

TEST(ScheduleFuzz, CachedCornerMatrix) {
  // Deterministic cache corners that always run: an exact (staleness-0)
  // cache under both pipelined modes and a mid-layer chunk, pinned against
  // the cached blocking baseline (full parity, counters included) AND the
  // uncached blocking run (loss bits — the cache must not touch numerics).
  Draw d;
  d.seed = 2;
  d.nparts = 4;
  d.model = ModelKind::kSage;
  d.sample_rate = 0.5f;
  d.num_layers = 2;
  d.model_seed = 13;
  d.cache_mb = 2;
  d.cache_staleness = 0;
  const TrainResult base = run_draw(d, /*baseline=*/true);
  Draw plain = d;
  plain.cache_mb = 0;
  const TrainResult uncached = run_draw(plain, /*baseline=*/true);
  expect_loss_parity(uncached, base, d);
  for (const OverlapMode mode : {OverlapMode::kBulk, OverlapMode::kStream}) {
    for (const NodeId chunk : {0, 37}) {
      d.mode = mode;
      d.chunk = chunk;
      d.shuffle = 0xFADEDBEEFULL;
      d.threads = 2;
      SCOPED_TRACE(d.describe());
      const TrainResult got = run_draw(d, /*baseline=*/false);
      expect_parity(base, got, d);
    }
  }
}

TEST(ScheduleFuzz, ShuffledArrivalsAloneAreHarmless) {
  // The delivery shuffle must be a pure arrival-order perturbation: even
  // the *blocking* schedule (which never probes) and the bulk wait_all
  // path train bit-identically under it.
  Draw d;
  d.nparts = 5;
  d.model = ModelKind::kSage;
  d.sample_rate = 0.7f;
  d.num_layers = 2;
  d.model_seed = 23;
  const TrainResult base = run_draw(d, /*baseline=*/true);
  for (const OverlapMode mode : {OverlapMode::kBlocking, OverlapMode::kBulk,
                                 OverlapMode::kStream}) {
    d.mode = mode;
    d.chunk = 0;
    d.shuffle = 99991;
    d.threads = 4;
    SCOPED_TRACE(d.describe());
    const TrainResult got = run_draw(d, /*baseline=*/false);
    expect_parity(base, got, d);
  }
}

} // namespace
} // namespace bnsgcn

/// Custom main: the fuzz knobs ride on the gtest command line (and the
/// environment, for runners that cannot pass flags through). Defining our
/// own main simply outcompetes gtest_main's at link time.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (const char* s = std::getenv("BNSGCN_FUZZ_SEED"))
    bnsgcn::g_fuzz.seed = std::strtoull(s, nullptr, 10);
  if (const char* s = std::getenv("BNSGCN_FUZZ_ITERS"))
    bnsgcn::g_fuzz.iters = static_cast<int>(std::strtol(s, nullptr, 10));
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fuzz-seed=", 12) == 0)
      bnsgcn::g_fuzz.seed = std::strtoull(argv[i] + 12, nullptr, 10);
    else if (std::strncmp(argv[i], "--fuzz-iters=", 13) == 0)
      bnsgcn::g_fuzz.iters =
          static_cast<int>(std::strtol(argv[i] + 13, nullptr, 10));
  }
  return RUN_ALL_TESTS();
}

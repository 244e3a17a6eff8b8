// Hot-boundary feature cache (docs/ARCHITECTURE.md §9): per-peer caching
// of boundary rows, swept over partition counts {2, 4, 8, 16} × cache
// budgets, on a synthetic graph whose input width (feat_dim 128) dwarfs
// the hidden width (16) — the regime the cache exists for, since layer-0
// input features are epoch-invariant and dominate the exchange volume.
//
// Cache sizing is data-driven: the per-peer boundary-row histogram (the
// same quantity bench_fig3_ratio_hist prints) picks the top-quartile and
// max channel working sets, and the swept budgets are the MiB ceilings of
// those row counts at the input width.
//
// Enforced gates (nonzero exit on violation, all '!!'-marked):
//  - staleness 0 is bit-identical to the uncached run — losses compared
//    through the bit pattern — for {sage, gat} × {blocking, bulk, stream,
//    chunked-stream} at 4 partitions on the mailbox, and for a cached
//    UDS run against its mailbox twin at 2 partitions;
//  - at 8 partitions with the top-quartile budget, every warm epoch ships
//    <= 50% of the uncached run's feature bytes;
//  - cache_hit_rows and bytes_saved are nonzero wherever the cache is on.
// Every row lands in the JSON artifact with its config (bench_replay
// replays the cache counters bit-exactly on any transport).

#include "common.hpp"
#include "core/local_graph.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace {

using namespace bnsgcn;

int g_failures = 0;

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

SyntheticSpec cache_spec(double scale) {
  SyntheticSpec spec;
  spec.name = "cache-bench";
  spec.n = static_cast<NodeId>(4000 * scale);
  spec.m = static_cast<EdgeId>(40000 * scale);
  spec.communities = 8;
  spec.num_classes = 8;
  spec.feat_dim = 128; // wide input vs hidden 16: layer 0 dominates
  spec.p_intra = 0.88;
  spec.feature_noise = 1.0;
  spec.seed = 20260807;
  return spec;
}

api::RunConfig base_config(const SyntheticSpec& spec) {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.dataset.custom = spec; // replay-self-contained rows
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 4; // 1 cold + 3 warm
  cfg.trainer.eval_every = 0;
  cfg.trainer.seed = 17;
  cfg.trainer.sample_rate = 1.0f;
  return cfg;
}

/// Top-quartile and max per-peer boundary-row counts at `nparts`,
/// converted to per-(peer, layer) MiB budgets at the input width.
struct Sizing {
  std::int64_t p75_rows = 0;
  std::int64_t max_rows = 0;
  std::int64_t p75_mb = 1;
  std::int64_t max_mb = 1;
};

Sizing size_from_histogram(const Dataset& ds, const Partitioning& part) {
  const auto lgs = core::build_local_graphs(ds.graph, part);
  std::vector<std::int64_t> rows;
  for (const auto& lg : lgs)
    for (const auto& halo : lg.recv_halo)
      if (!halo.empty())
        rows.push_back(static_cast<std::int64_t>(halo.size()));
  std::sort(rows.begin(), rows.end());
  Sizing s;
  if (rows.empty()) return s;
  s.p75_rows = rows[static_cast<std::size_t>(
      0.75 * static_cast<double>(rows.size() - 1))];
  s.max_rows = rows.back();
  const std::int64_t d = ds.feat_dim();
  const auto mb = [d](std::int64_t r) {
    return std::max<std::int64_t>(
        1, (r * d * static_cast<std::int64_t>(sizeof(float)) + (1 << 20) - 1) >>
               20);
  };
  s.p75_mb = mb(s.p75_rows);
  s.max_mb = mb(s.max_rows);
  return s;
}

void require(bool ok, const char* what) {
  if (!ok) {
    std::printf("  !! %s\n", what);
    ++g_failures;
  }
}

} // namespace

int main(int argc, char** argv) {
  using namespace bnsgcn;
  const auto opts = api::parse_bench_args(argc, argv);
  bench::print_banner("Cache",
                      "hot-boundary feature cache: hit rate, bytes saved, "
                      "tail deltas across partition counts x budgets");

  const SyntheticSpec spec = cache_spec(opts.scale);
  const Dataset ds = make_synthetic(spec);
  std::printf("graph: n=%d avg_deg=%.1f feat_dim=%lld hidden=16\n",
              ds.num_nodes(), ds.graph.average_degree(),
              static_cast<long long>(ds.feat_dim()));
  bench::ReportSink sink("Cache", opts);
  api::RunConfig base = base_config(spec);
  base.trainer.epochs = opts.epochs_or(4);
  base.comm.transport = opts.transport;

  const std::vector<PartId> parts =
      opts.parts.empty()
          ? std::vector<PartId>{2, 4, 8, 16}
          : std::vector<PartId>(opts.parts.begin(), opts.parts.end());

  std::printf("\n%-26s %9s %9s %8s %10s %10s %10s\n", "config", "hit rate",
              "saved MB", "warm rx%", "cold s/ep", "warm s/ep", "tail delta");
  for (const PartId m : parts) {
    base.partition.nparts = m;
    api::PartitionSpec pspec = base.partition;
    const auto part = api::cached_partition(ds.graph, pspec);
    const Sizing sz = size_from_histogram(ds, *part);
    std::printf("m=%-3d peer rows p75=%lld max=%lld -> budgets {%lld, %lld} "
                "MiB/peer\n",
                m, static_cast<long long>(sz.p75_rows),
                static_cast<long long>(sz.max_rows),
                static_cast<long long>(sz.p75_mb),
                static_cast<long long>(sz.max_mb));

    auto plain_cfg = base;
    plain_cfg.comm.cache_mb = 0;
    const api::RunReport plain =
        sink.run_streamed(bench::label("m=%d uncached", m), ds, plain_cfg);

    std::vector<std::int64_t> budgets = {sz.p75_mb};
    if (sz.max_mb != sz.p75_mb) budgets.push_back(sz.max_mb);
    for (const std::int64_t mb : budgets) {
      auto cfg = base;
      cfg.comm.cache_mb = mb;
      const api::RunReport got = sink.run_streamed(
          bench::label("m=%d cache=%lldmb", m, static_cast<long long>(mb)),
          ds, cfg);

      // Gate: the exact (staleness-0) cache is invisible to the numerics.
      require(bits_equal(plain.train_loss, got.train_loss),
              "losses diverge from the uncached run at staleness 0");
      require(got.cache_hit_rows() > 0, "cache_hit_rows is zero");
      require(got.cache_bytes_saved() > 0, "bytes_saved is zero");

      // Warm-epoch feature traffic vs the uncached run (epoch 0 is the
      // cold fill and legitimately matches the uncached volume plus the
      // index-list overhead).
      double warm_ratio = 0.0;
      int warm_n = 0;
      bool warm_halved = true;
      for (std::size_t e = 1; e < got.epochs.size(); ++e) {
        const double r =
            static_cast<double>(got.epochs[e].feature_bytes) /
            static_cast<double>(std::max<std::int64_t>(
                1, plain.epochs[e].feature_bytes));
        warm_ratio += r;
        ++warm_n;
        if (got.epochs[e].feature_bytes * 2 > plain.epochs[e].feature_bytes)
          warm_halved = false;
      }
      warm_ratio = warm_n > 0 ? warm_ratio / warm_n : 1.0;
      // Acceptance gate: >= 50% reduction on every warm epoch at the
      // 8-partition top-quartile point (and everywhere else here — the
      // budgets come from the histogram, so coverage is near-total).
      if (m == 8 && mb == sz.p75_mb)
        require(warm_halved,
                "warm epochs shipped > 50% of uncached feature bytes at "
                "m=8 with the top-quartile budget");

      std::printf("%-26s %8.1f%% %9.2f %7.1f%% %10.4f %10.4f %+10.4f\n",
                  bench::label("m=%d cache=%lldmb", m,
                               static_cast<long long>(mb))
                      .c_str(),
                  100.0 * got.cache_hit_rate(),
                  bench::mb(got.cache_bytes_saved()), 100.0 * warm_ratio,
                  plain.epoch_time_s(), got.epoch_time_s(),
                  got.mean_epoch().comm_tail_s -
                      plain.mean_epoch().comm_tail_s);
    }
  }

  // Mode × model bit-identity matrix at 4 partitions: the cache must be
  // invisible on every schedule, not just the blocking one.
  std::printf("\nbit-identity matrix (m=4, staleness 0):\n");
  {
    base.partition.nparts = 4;
    const bench::Schedule kModes[] = {{core::OverlapMode::kBlocking, 0},
                                      {core::OverlapMode::kBulk, 0},
                                      {core::OverlapMode::kStream, 0},
                                      {core::OverlapMode::kStream, 96}};
    for (const core::ModelKind model :
         {core::ModelKind::kSage, core::ModelKind::kGat}) {
      const char* mname = enum_names(model).name(model);
      for (const auto& md : kModes) {
        auto cfg = base;
        cfg.trainer.model = model;
        cfg.trainer.gat_heads = model == core::ModelKind::kGat ? 2 : 1;
        cfg.comm.overlap = md.mode;
        cfg.comm.inner_chunk_rows = md.chunk;
        cfg.comm.cache_mb = 0;
        const api::RunReport off = sink.run_streamed(
            bench::label("id m=4 %s %s uncached", mname, md.name()), ds, cfg);
        cfg.comm.cache_mb = 4;
        const api::RunReport on = sink.run_streamed(
            bench::label("id m=4 %s %s cached", mname, md.name()), ds, cfg);
        const bool ok = bits_equal(off.train_loss, on.train_loss) &&
                        std::bit_cast<std::uint64_t>(off.final_val) ==
                            std::bit_cast<std::uint64_t>(on.final_val);
        std::printf("  %-5s %-9s %s\n", mname, md.name(),
                    ok ? "bit-identical" : "DIVERGED");
        require(ok, "cached run diverged in the mode/model matrix");
        require(on.cache_hit_rows() > 0,
                "cache idle in the mode/model matrix");
      }
    }
  }

  // Transport twin: a cached UDS run must match its mailbox twin bit for
  // bit — losses AND cache counters (the directories never consult the
  // transport).
  std::printf("\ntransport twin (m=2, cached, uds vs mailbox):\n");
  {
    base.partition.nparts = 2;
    auto cfg = base;
    cfg.comm.cache_mb = 4;
    cfg.comm.transport = comm::TransportKind::kMailbox;
    const api::RunReport mbox =
        sink.run_streamed("twin m=2 cached mailbox", ds, cfg);
    cfg.comm.transport = comm::TransportKind::kUds;
    const api::RunReport sock =
        sink.run_streamed("twin m=2 cached uds", ds, cfg);
    const bool ok = bits_equal(mbox.train_loss, sock.train_loss) &&
                    mbox.cache_hit_rows() == sock.cache_hit_rows() &&
                    mbox.cache_bytes_saved() == sock.cache_bytes_saved();
    std::printf("  %s (hits %lld, saved %.2f MB)\n",
                ok ? "bit-identical" : "DIVERGED",
                static_cast<long long>(sock.cache_hit_rows()),
                bench::mb(sock.cache_bytes_saved()));
    require(ok, "cached uds run diverged from its mailbox twin");
  }

  if (g_failures > 0) {
    std::printf("\nshape check FAILED: %d violation(s)\n", g_failures);
    return 1;
  }
  std::printf("\nshape check: staleness-0 cache bit-identical to uncached on "
              "every mode/model/transport row; warm epochs <= 50%% of "
              "uncached feature bytes at m=8 with the top-quartile budget; "
              "hit/saved counters nonzero wherever the cache is on.\n");
  return 0;
}

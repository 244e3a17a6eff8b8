// The rank runtime (api::run_ranks_piped) and cross-process parity. The
// runtime table drives plain rank bodies over every transport: rank 0's
// payload comes back, and a failed run names its root-cause rank the same
// way on threads and on forked processes. A multi-process socket run (one
// forked OS process per rank, UDS or TCP loopback) must train
// bit-identically to the in-process mailbox run of the same config — same
// losses, same eval curve, same byte counts — while reporting measured
// (wall-clock) comm timing instead of the mailbox's simulated times. Also
// pins the deadlock-free shutdown contract at process level: a rank that
// dies mid-epoch must surface as a clean error naming it, not a hang.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <csignal>
#include <stdexcept>
#include <string>

#include "api/multiprocess.hpp"
#include "api/run.hpp"
#include "api/serialize.hpp"
#include "partition/metis_like.hpp"

namespace bnsgcn {
namespace {

using comm::TimingSource;
using comm::TransportKind;

constexpr TransportKind kAllTransports[] = {
    TransportKind::kMailbox, TransportKind::kUds, TransportKind::kTcp};
constexpr PartId kTableRanks = 4;

/// Run `fn` on kTableRanks ranks over `kind` and require a failure whose
/// message names rank `k` first, carries `what`, and names no other rank.
void expect_root_cause(TransportKind kind, PartId k, const std::string& what,
                       const api::RankPayloadFn& fn) {
  SCOPED_TRACE(std::string(comm::transport_kind_name(kind)) + " rank " +
               std::to_string(k));
  alarm(180);
  try {
    (void)api::run_ranks_piped(kind, kTableRanks,
                               comm::CostModel::scaled_pcie3(), fn);
    ADD_FAILURE() << "failed run went unnoticed";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(dynamic_cast<const comm::RankFailure*>(&e), nullptr) << msg;
    EXPECT_EQ(msg.rfind("rank " + std::to_string(k) + ": ", 0), 0u) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
    for (PartId j = 0; j < kTableRanks; ++j) {
      if (j != k) {
        EXPECT_EQ(msg.find("rank " + std::to_string(j)), std::string::npos)
            << msg;
      }
    }
  }
  alarm(0);
}

/// A body in which every rank but `k` blocks on a message from rank `k`
/// that never comes; rank `k` runs `die` instead.
api::RankPayloadFn blocked_on(PartId k, void (*die)()) {
  return [k, die](comm::Fabric& fabric, PartId r) {
    if (r == k) die();
    (void)fabric.endpoint(r).recv_floats(k, 0, comm::TrafficClass::kControl);
    return std::string("unreachable");
  };
}

TEST(RankRuntime, EveryRankSucceedsAndRankZerosPayloadComesBack) {
  for (const TransportKind kind : kAllTransports) {
    SCOPED_TRACE(comm::transport_kind_name(kind));
    alarm(180);
    const std::string payload = api::run_ranks_piped(
        kind, kTableRanks, comm::CostModel::scaled_pcie3(),
        [](comm::Fabric& fabric, PartId r) {
          // One collective, so every rank really talks to its peers.
          const double sum =
              fabric.endpoint(r).allreduce_sum_scalar(static_cast<double>(r));
          return r == 0 ? "sum " + std::to_string(static_cast<int>(sum))
                        : std::string();
        });
    alarm(0);
    EXPECT_EQ(payload, "sum 6");
  }
}

TEST(RankRuntime, ThrowingRankIsTheRootCauseNotItsBlockedPeers) {
  for (const TransportKind kind : kAllTransports) {
    for (const PartId k : {PartId{0}, PartId{1}, kTableRanks - 1}) {
      expect_root_cause(kind, k, "planted failure",
                        blocked_on(k, [] {
                          throw std::runtime_error("planted failure");
                        }));
    }
  }
}

TEST(RankRuntime, AllShutdownErrorsNameRankZero) {
  for (const TransportKind kind : kAllTransports) {
    expect_root_cause(kind, 0, "planted shutdown",
                      [](comm::Fabric&, PartId) -> std::string {
                        throw comm::ShutdownError("planted shutdown");
                      });
  }
}

TEST(RankRuntime, RankKilledBySignalIsNamedWithTheSignal) {
  // Forked ranks only: a signal would take the whole test process down
  // with the mailbox's rank threads.
  for (const TransportKind kind : {TransportKind::kUds, TransportKind::kTcp})
    expect_root_cause(kind, 1, "killed by signal 9",
                      blocked_on(1, [] { (void)::raise(SIGKILL); }));
}

Dataset small_dataset(std::uint64_t seed = 41) {
  SyntheticSpec spec;
  spec.name = "mp-test";
  spec.n = 700;
  spec.m = 7000;
  spec.communities = 4;
  spec.num_classes = 4;
  spec.feat_dim = 12;
  spec.p_intra = 0.9;
  spec.feature_noise = 1.0;
  spec.seed = seed;
  return make_synthetic(spec);
}

api::RunConfig base_config(core::ModelKind model, NodeId chunk_rows) {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 3;
  cfg.trainer.seed = 5;
  cfg.trainer.sample_rate = 1.0f;
  cfg.trainer.eval_every = 2;
  cfg.trainer.model = model;
  cfg.trainer.gat_heads = model == core::ModelKind::kGat ? 2 : 1;
  cfg.comm.overlap = core::OverlapMode::kStream;
  cfg.comm.inner_chunk_rows = chunk_rows;
  return cfg;
}

/// Run `cfg` once on the mailbox and once on `kind`, same partitioning,
/// and require bit-identical training while the socket run reports
/// measured timing.
void expect_parity(const Dataset& ds, const Partitioning& part,
                   api::RunConfig cfg, TransportKind kind,
                   const char* what) {
  SCOPED_TRACE(what);
  cfg.comm.transport = TransportKind::kMailbox;
  const api::RunReport mbox = api::run(ds, part, cfg);
  cfg.comm.transport = kind;
  const api::RunReport sock = api::run(ds, part, cfg);

  // Bit parity: the socket backend folds in the same deterministic order
  // as the mailbox, so every numeric the schedule produces must match to
  // the last bit.
  EXPECT_EQ(sock.train_loss, mbox.train_loss);
  EXPECT_EQ(sock.final_val, mbox.final_val);
  EXPECT_EQ(sock.final_test, mbox.final_test);
  ASSERT_EQ(sock.curve.size(), mbox.curve.size());
  for (std::size_t i = 0; i < mbox.curve.size(); ++i) {
    EXPECT_EQ(sock.curve[i].val, mbox.curve[i].val);
    EXPECT_EQ(sock.curve[i].test, mbox.curve[i].test);
  }
  ASSERT_EQ(sock.epochs.size(), mbox.epochs.size());
  for (std::size_t i = 0; i < mbox.epochs.size(); ++i) {
    EXPECT_EQ(sock.epochs[i].feature_bytes, mbox.epochs[i].feature_bytes);
    EXPECT_EQ(sock.epochs[i].grad_bytes, mbox.epochs[i].grad_bytes);
    EXPECT_EQ(sock.epochs[i].control_bytes, mbox.epochs[i].control_bytes);
    // Timing source flips: mailbox simulates from byte counts, sockets
    // measure wall-clock spans.
    EXPECT_EQ(mbox.epochs[i].timing, TimingSource::kSimulated);
    EXPECT_EQ(sock.epochs[i].timing, TimingSource::kMeasured);
    EXPECT_GT(sock.epochs[i].comm_s, 0.0);
    EXPECT_LE(sock.epochs[i].overlap_s, sock.epochs[i].comm_s);
    EXPECT_GE(sock.epochs[i].overlap_s, 0.0);
    EXPECT_GE(sock.epochs[i].comm_tail_s, 0.0);
  }
  EXPECT_EQ(sock.memory.model_bytes, mbox.memory.model_bytes);
  EXPECT_EQ(sock.memory.full_bytes, mbox.memory.full_bytes);
}

TEST(Multiprocess, UdsSageParityStreamAndChunked) {
  const Dataset ds = small_dataset();
  for (const PartId nparts : {2, 4}) {
    const auto part = metis_like(ds.graph, nparts);
    for (const NodeId chunk : {NodeId{0}, NodeId{64}}) {
      const auto cfg = base_config(core::ModelKind::kSage, chunk);
      expect_parity(ds, part, cfg, TransportKind::kUds,
                    (std::string("sage uds m=") + std::to_string(nparts) +
                     " chunk=" + std::to_string(chunk))
                        .c_str());
    }
  }
}

TEST(Multiprocess, UdsGatParityStreamAndChunked) {
  const Dataset ds = small_dataset(43);
  for (const PartId nparts : {2, 4}) {
    const auto part = metis_like(ds.graph, nparts);
    for (const NodeId chunk : {NodeId{0}, NodeId{64}}) {
      const auto cfg = base_config(core::ModelKind::kGat, chunk);
      expect_parity(ds, part, cfg, TransportKind::kUds,
                    (std::string("gat uds m=") + std::to_string(nparts) +
                     " chunk=" + std::to_string(chunk))
                        .c_str());
    }
  }
}

TEST(Multiprocess, TcpParityOneConfig) {
  // TCP is config-compatible with UDS (same framing, loopback sockets);
  // one representative config keeps the suite fast while pinning the
  // address-family-specific bootstrap.
  const Dataset ds = small_dataset(47);
  const auto part = metis_like(ds.graph, 2);
  expect_parity(ds, part, base_config(core::ModelKind::kSage, 0),
                TransportKind::kTcp, "sage tcp m=2");
}

TEST(Multiprocess, DeadRankSurfacesCleanErrorNotHang) {
  // One rank throws just before the first forward exchange; its process
  // unwind closes the sockets, peers' blocking waits error out with
  // ShutdownError, every child exits, and the parent names the failed rank
  // with its own message, not the peers that unwound after it. The alarm
  // turns a regression into a loud SIGALRM instead of a silent CI timeout.
  const Dataset ds = small_dataset(53);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage, 0);
  cfg.comm.transport = TransportKind::kUds;
  cfg.trainer.fail_rank = 1;
  alarm(180);
  try {
    (void)api::run(ds, part, cfg);
    FAIL() << "dead rank went unnoticed";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("rank 1", 0), 0u) << msg;
    EXPECT_NE(msg.find("injected failure: rank 1"), std::string::npos)
        << msg;
  }
  alarm(0);
}

TEST(Multiprocess, ReportLargerThanPipeCapacitySurvivesTheReportPipe) {
  // Regression for the parent's report-pipe read loop: a rank-0 report
  // bigger than the kernel pipe capacity (64 KiB on Linux) arrives in
  // several read() chunks while rank 0 is still alive and blocked in
  // write(). A single-read parent would truncate the JSON mid-token and
  // deadlock rank 0; the loop must drain to EOF and parse the whole
  // document. An epoch sweep inflates the per-epoch rows well past the
  // pipe capacity without meaningful extra compute (tiny graph).
  const Dataset ds = small_dataset(61);
  const auto part = metis_like(ds.graph, 2);
  auto cfg = base_config(core::ModelKind::kSage, 0);
  cfg.comm.transport = TransportKind::kUds;
  cfg.trainer.epochs = 400;
  cfg.trainer.eval_every = 0;  // keep the sweep cheap: no eval forwards
  alarm(180);
  const api::RunReport report = api::run(ds, part, cfg);
  alarm(0);
  ASSERT_EQ(report.epochs.size(), 400u);
  // The fix matters only if this report genuinely exceeds the pipe
  // capacity — assert it so dataset shrinkage cannot quietly defang the
  // test.
  EXPECT_GT(api::to_json_string(report).size(), 65536u);
  EXPECT_EQ(report.epochs.back().timing, TimingSource::kMeasured);
}

/// Equal bits, or both NaN (a NaN's payload does not survive the report's
/// JSON hand-off, so only its position is compared).
bool same_or_both_nan(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

TEST(Multiprocess, DivergedRunReportsTheSameNonFiniteLossesOnEveryTransport) {
  // lr = 1e30 blows the weights up within an epoch or two. Rank 0's report
  // must still come back on both halves of the runtime, with its NaNs at
  // the same epochs.
  const Dataset ds = small_dataset(67);
  const auto part = metis_like(ds.graph, 2);
  auto cfg = base_config(core::ModelKind::kSage, 0);
  cfg.trainer.lr = 1e30f;
  cfg.trainer.epochs = 6;
  cfg.trainer.eval_every = 0;
  alarm(180);
  cfg.comm.transport = TransportKind::kMailbox;
  const api::RunReport mbox = api::run(ds, part, cfg);
  cfg.comm.transport = TransportKind::kUds;
  const api::RunReport uds = api::run(ds, part, cfg);
  alarm(0);
  ASSERT_EQ(mbox.train_loss.size(), 6u);
  ASSERT_EQ(uds.train_loss.size(), 6u);
  int nonfinite = 0;
  for (std::size_t e = 0; e < 6; ++e) {
    EXPECT_TRUE(same_or_both_nan(mbox.train_loss[e], uds.train_loss[e]))
        << "epoch " << e << ": " << mbox.train_loss[e] << " vs "
        << uds.train_loss[e];
    if (!std::isfinite(mbox.train_loss[e])) ++nonfinite;
  }
  EXPECT_GT(nonfinite, 0) << "the run did not diverge";
  EXPECT_TRUE(same_or_both_nan(mbox.final_val, uds.final_val));
  EXPECT_TRUE(same_or_both_nan(mbox.final_test, uds.final_test));
}

TEST(Multiprocess, MailboxThreadPathAlsoUnwindsOnDeadRank) {
  // Same injection through the in-process mailbox fabric: the failing
  // thread's shutdown() must poison the collectives so the sibling rank
  // threads unwind, and the runtime must name the root cause (the injected
  // error), not a secondary ShutdownError.
  const Dataset ds = small_dataset(59);
  const auto part = metis_like(ds.graph, 4);
  auto cfg = base_config(core::ModelKind::kSage, 0);
  cfg.comm.transport = TransportKind::kMailbox;
  cfg.trainer.fail_rank = 2;
  alarm(180);
  try {
    (void)api::run(ds, part, cfg);
    FAIL() << "dead rank went unnoticed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected failure"),
              std::string::npos)
        << e.what();
  }
  alarm(0);
}

} // namespace
} // namespace bnsgcn

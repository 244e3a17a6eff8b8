#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bnsgcn::comm {

/// Which message backend carries a run's traffic. The mailbox is the
/// in-process deterministic test double; uds/tcp are real sockets driven
/// by the multi-process runtime (one OS process per rank).
enum class TransportKind { kMailbox = 0, kUds = 1, kTcp = 2 };

/// How a run's `overlap_s`/`comm_tail_s` were obtained: schedule-simulated
/// from the cost model (mailbox) or measured wall-clock (sockets).
enum class TimingSource { kSimulated = 0, kMeasured = 1 };

[[nodiscard]] const char* transport_kind_name(TransportKind k);
[[nodiscard]] TransportKind transport_kind_from_name(const std::string& name);

/// Thrown from blocking fabric calls when the fabric has been shut down
/// (a peer failed and closed its side, or shutdown() was called). Lets
/// surviving ranks unwind instead of hanging on a dead peer.
class ShutdownError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What a rank runtime (comm::run_ranks, api::run_ranks_piped) throws when
/// a run fails: the root-cause rank (see comm::raise_root_cause) and that
/// rank's own message, as "rank <r>: <what>".
class RankFailure : public std::runtime_error {
 public:
  RankFailure(PartId rank, const std::string& what)
      : std::runtime_error("rank " + std::to_string(rank) + ": " + what) {}
};

/// Payload kind of a Wire message; its value is also the kind field of a
/// socket frame's header, where anything above kDoubles is corrupt
/// (docs/ARCHITECTURE.md §3 "Framing"). kFloats/kIds/kDoubles populate
/// exactly one of the payload vectors; kHaloDelta — the halo cache's
/// miss-only message (docs/ARCHITECTURE.md §9) — carries two: `ids` lists
/// which positions of the exchange's row list are actually present,
/// `floats` their rows.
enum class WireKind : std::uint8_t {
  kFloats = 0,
  kIds = 1,
  kHaloDelta = 2,
  kDoubles = 3,
};

/// One tagged message, the only form a message takes on every backend:
/// the mailbox queues it as is, and the socket codec encodes it straight
/// into a frame and decodes a frame straight back into one. `kind` says
/// which payload vectors are populated; `doubles` carries the
/// collectives' scalars and metric vectors.
struct Wire {
  int tag = 0;
  WireKind kind = WireKind::kFloats;
  std::vector<float> floats;
  std::vector<NodeId> ids;
  std::vector<double> doubles{};
};

/// Message backend behind the Fabric/Endpoint API: a transport only moves
/// tagged messages. The collectives and all byte/time *accounting* live in
/// Endpoint, built on send/recv, so every backend runs the same collective
/// algorithms and reports identical traffic for identical schedules.
/// Blocking calls for a rank must be made from the thread (or process)
/// owning that rank.
///
/// Determinism contract (required for cross-backend bit parity): per
/// (from → to) pair, messages arrive in send order.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual PartId nranks() const = 0;
  /// True when this transport instance carries the given rank (the
  /// mailbox serves all ranks in one process; a socket transport serves
  /// exactly the rank whose process constructed it).
  [[nodiscard]] virtual bool serves(PartId rank) const = 0;
  [[nodiscard]] virtual TimingSource timing() const = 0;

  /// Tagged point-to-point. send never blocks indefinitely (eager
  /// deposit or queued write); recv blocks until a matching message
  /// arrives; try_recv is a nonblocking probe of what has already
  /// arrived. Bytes move without the caller's help — the mailbox deposits
  /// on send, the socket backend's I/O thread reads in the background —
  /// so a probe never has to drive progress. Blocking and probing calls
  /// throw ShutdownError once the fabric is shut down or the peer is gone.
  virtual void send(PartId from, PartId to, Wire msg) = 0;
  virtual bool try_recv(PartId rank, PartId from, int tag, Wire& out) = 0;
  [[nodiscard]] virtual Wire recv(PartId rank, PartId from, int tag) = 0;

  /// Tear the fabric down from `rank`'s side: wake every blocked call
  /// with ShutdownError (mailbox) / close the sockets so peers' blocking
  /// reads error out (sockets). Idempotent; called by a failing rank so
  /// survivors unwind instead of deadlocking.
  virtual void shutdown(PartId rank) = 0;

  /// Test-only arrival-order shuffle; only the mailbox supports it.
  virtual void enable_delivery_shuffle(std::uint64_t seed, int max_hold);
};

} // namespace bnsgcn::comm

#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/transport.hpp"
#include "common/types.hpp"

namespace bnsgcn::comm {

/// Accounting category for traffic. The epoch breakdown (Fig. 5 / Table 6)
/// separates boundary-feature exchange from gradient allreduce; the ROC and
/// CAGNET proxies use their own classes so their extra traffic is visible.
enum class TrafficClass : int {
  kFeature = 0,   // boundary node features / feature gradients
  kGradient = 1,  // model-gradient allreduce
  kControl = 2,   // sampled-index broadcast and other metadata
  kSwap = 3,      // ROC proxy: CPU<->GPU partition swaps
  kBroadcast = 4, // CAGNET proxy: dense feature broadcast
  kCount = 5
};

/// Per-rank traffic counters (bytes and messages per class, tx and rx).
struct RankStats {
  std::array<std::int64_t, static_cast<int>(TrafficClass::kCount)> tx_bytes{};
  std::array<std::int64_t, static_cast<int>(TrafficClass::kCount)> rx_bytes{};
  std::array<std::int64_t, static_cast<int>(TrafficClass::kCount)> tx_msgs{};
  std::array<std::int64_t, static_cast<int>(TrafficClass::kCount)> rx_msgs{};

  /// Traffic between two snapshots of the same counters: `*this` minus
  /// the earlier snapshot `before`, per class and direction.
  [[nodiscard]] RankStats operator-(const RankStats& before) const;

  /// Simulated seconds to move this traffic under `cost`, assuming full
  /// duplex (send/recv overlap → max of the two directions).
  [[nodiscard]] double sim_seconds(TrafficClass cls,
                                   const CostModel& cost) const;
};

class Fabric;
class Request;

/// A rank's handle into the fabric. Blocking calls must be made from the
/// thread owning the rank; the i-prefixed calls return a Request that the
/// same thread later completes with wait()/test().
///
/// All byte accounting lives here, above the transport: tx is counted when
/// a send is posted, rx when a receive *completes* on the receiving rank.
/// Each rank therefore only ever writes its own counters, whatever backend
/// carries the bytes — and identical schedules account identical traffic
/// on every backend.
///
/// The collectives are built here too, once, on the transport's tagged
/// send/recv; every rank must enter each in the same order (the standard
/// MPI-style contract). Each call takes the next tag of a per-endpoint
/// sequence counting down from -2, a space no point-to-point tag (>= 0)
/// can collide with. Their fold orders are the determinism contract every
/// backend inherits:
///  - allreduce_sum reduces at the root: rank 0 receives every
///    contribution, sums c_0 + c_1 + ... in rank order and sends that one
///    sum to every rank, so every rank ends with bit-identical data;
///  - scalar allreduces fold all contributions, self included, in
///    ascending rank order on every rank;
///  - allgather results are indexed by rank;
///  - barrier is a hub on rank 0: it receives from every peer, then
///    releases every peer.
class Endpoint {
 public:
  [[nodiscard]] PartId rank() const { return rank_; }
  [[nodiscard]] PartId nranks() const;
  /// Simulated (mailbox) or measured wall-clock (sockets) timing.
  [[nodiscard]] TimingSource timing() const;

  /// Tagged point-to-point. Payloads are moved through the transport
  /// backend (in-process mailbox or a socket).
  void send_floats(PartId to, int tag, std::vector<float> payload,
                   TrafficClass cls);
  [[nodiscard]] std::vector<float> recv_floats(PartId from, int tag,
                                               TrafficClass cls);
  void send_ids(PartId to, int tag, std::vector<NodeId> payload,
                TrafficClass cls);
  [[nodiscard]] std::vector<NodeId> recv_ids(PartId from, int tag,
                                             TrafficClass cls);

  /// Halo-cache delta message (WireKind::kHaloDelta): the index list of
  /// the rows actually present plus those rows' features. Both vectors
  /// are accounted under `cls` — the index list is real overhead the
  /// cache pays, so it must show up in the same traffic class it saves
  /// from.
  void send_halo(PartId to, int tag, std::vector<NodeId> present,
                 std::vector<float> rows, TrafficClass cls);

  /// Nonblocking point-to-point. isend hands the payload to the backend
  /// and returns an already complete Request (mailboxes are unbounded and
  /// socket sends queue locally, like an eager-protocol MPI send; the
  /// Request exists for a uniform wait_all over mixed batches); irecv
  /// posts a receive that completes when a matching message of any kind
  /// is delivered. Complete with Request::wait()/test() or a RequestSet.
  [[nodiscard]] Request isend_floats(PartId to, int tag,
                                     std::vector<float> payload,
                                     TrafficClass cls);
  [[nodiscard]] Request irecv_floats(PartId from, int tag, TrafficClass cls);

  /// Per-endpoint float-buffer pool: the trainer's per-peer staging
  /// vectors are acquired here instead of allocated fresh every exchange,
  /// and consumed wire payloads are released back after folding. On the
  /// mailbox fabric the buffers circulate between rank pools (a released
  /// receive buffer becomes a later send's staging), so steady-state
  /// epochs allocate nothing. acquire resizes to exactly `n` and makes no
  /// content guarantee — callers overwrite every element.
  [[nodiscard]] std::vector<float> acquire_floats(std::size_t n);
  void release_floats(std::vector<float> buf);

  /// Collectives.
  void barrier();
  /// In-place sum across ranks; every rank ends with the same bits
  /// (reduce-at-root: 2(n-1) messages).
  void allreduce_sum(std::span<float> data,
                     TrafficClass cls = TrafficClass::kGradient);
  [[nodiscard]] double allreduce_sum_scalar(double value);
  [[nodiscard]] double allreduce_max_scalar(double value);
  /// Gather every rank's id list; result[r] is rank r's contribution.
  [[nodiscard]] std::vector<std::vector<NodeId>> allgather_ids(
      std::vector<NodeId> ids, TrafficClass cls = TrafficClass::kControl);
  /// Gather every rank's metric vector; result[r] is rank r's values.
  /// Deliberately unaccounted: this carries the epoch-breakdown reduction
  /// (formerly shared-memory scratch), which must not perturb the traffic
  /// counters it reports.
  [[nodiscard]] std::vector<std::vector<double>> allgather_doubles(
      std::vector<double> vals);

  [[nodiscard]] RankStats& stats() { return stats_; }
  [[nodiscard]] const RankStats& stats() const { return stats_; }

 private:
  friend class Fabric;
  friend class Request;
  Endpoint(Fabric& fabric, PartId rank) : fabric_(fabric), rank_(rank) {}

  Transport& transport();
  void account_tx(TrafficClass cls, const Wire& msg);
  void account_rx(TrafficClass cls, const Wire& msg);
  /// Every point-to-point send: validate the peer, account tx, hand the
  /// message to the transport.
  void post(PartId to, Wire msg, TrafficClass cls);
  [[nodiscard]] int next_coll_tag() { return -2 - coll_seq_++; }
  /// Every rank's `mine`, indexed by rank: sent to each peer under one
  /// collective tag, then received from each in ascending rank order.
  [[nodiscard]] std::vector<Wire> allgather_wire(Wire mine);

  Fabric& fabric_;
  PartId rank_;
  int coll_seq_ = 0; // collectives entered so far
  RankStats stats_;
  std::vector<std::vector<float>> float_pool_;  // owner-thread only
};

/// Communication fabric over `nranks` logical ranks: per-rank Endpoints
/// (stats + accounting) in front of a pluggable Transport backend. The
/// default backend is the in-process mailbox (one thread per rank, see
/// run_ranks); the socket backends carry one rank per OS process. See
/// docs/ARCHITECTURE.md §3.
class Fabric {
 public:
  /// In-process mailbox fabric (the deterministic test double).
  explicit Fabric(PartId nranks, CostModel cost = CostModel::pcie3_x16());
  /// Fabric over an explicit backend (e.g. SocketTransport).
  Fabric(std::unique_ptr<Transport> transport, CostModel cost);

  [[nodiscard]] PartId nranks() const { return transport_->nranks(); }
  [[nodiscard]] Endpoint& endpoint(PartId rank);
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }
  [[nodiscard]] TimingSource timing() const { return transport_->timing(); }

  /// Tear the fabric down from `rank`'s side so peers blocked on it
  /// unwind with ShutdownError instead of hanging. Called by a failing
  /// rank's error path; idempotent.
  void shutdown(PartId rank) { transport_->shutdown(rank); }

  /// Test-only arrival-order shuffle (mailbox backend only); see
  /// MailboxTransport::enable_delivery_shuffle. Call before the rank
  /// threads start.
  void enable_delivery_shuffle(std::uint64_t seed, int max_hold = 8);

 private:
  friend class Endpoint;

  std::unique_ptr<Transport> transport_;
  CostModel cost_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

/// Handle to a nonblocking operation. Sends are complete on creation
/// (eager deposit); receives complete when the matching message is taken
/// out of the backend by test()/wait(). Movable, non-copyable; must be
/// completed (or destroyed) by the thread owning the posting endpoint.
///
/// Payload buffers are double-buffered across the exchange: the in-flight
/// bytes live in the backend (mailbox message / socket inbox) while the
/// consumer keeps computing on its own matrices; wait() moves the message
/// into the request's private slot, and take_floats()/take_payload() move
/// it out again into the fold destination. The network-side and compute-side
/// buffers are therefore never the same memory, which is what lets the
/// trainer fold a finished exchange while the next one's deposits are
/// already arriving.
class Request {
 public:
  Request() = default;
  Request(Request&&) = default;
  Request& operator=(Request&&) = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// True when the operation has completed (sends: always).
  [[nodiscard]] bool done() const { return state_ == nullptr || state_->done; }
  /// Nonblocking completion probe; returns done().
  bool test();
  /// Block until complete.
  void wait();
  /// Move the received floats out (wait()s first if still pending).
  [[nodiscard]] std::vector<float> take_floats();
  /// Move the whole message out — for kHaloDelta messages, whose index
  /// list and rows are consumed together, and for every other kind.
  [[nodiscard]] Wire take_payload();

 private:
  friend class Endpoint;
  struct State {
    Endpoint* owner = nullptr;
    PartId from = 0;
    int tag = 0;
    TrafficClass cls = TrafficClass::kFeature;
    bool done = false;
    Wire payload;
  };
  explicit Request(std::unique_ptr<State> state) : state_(std::move(state)) {}
  std::unique_ptr<State> state_;
};

/// How one rank's body ended, as a rank runtime records it: ok, unwound
/// by a ShutdownError, or failed with any other exception (`what` holds
/// the exception's message).
struct RankOutcome {
  enum class Kind : std::uint8_t { kOk = 0, kShutdown = 1, kFailed = 2 };
  Kind kind = Kind::kOk;
  std::string what;
};

/// The outcome of the exception being handled; call only inside a catch
/// block.
[[nodiscard]] RankOutcome current_outcome();

/// The one failure policy of the rank runtimes. Returns when every rank
/// succeeded; otherwise throws RankFailure naming the root cause: the
/// first rank, in rank order, that failed with anything but a
/// ShutdownError (a ShutdownError is collateral: a peer shut the fabric
/// down under it), or, if every failure is a ShutdownError, the first of
/// those.
void raise_root_cause(std::span<const RankOutcome> outcomes);

/// The thread half of the rank runtime: run `rank_fn(r)` for every rank
/// of `fabric` on a thread of its own and join them all. A rank that
/// throws shuts the fabric down from its side, so peers blocked on it
/// unwind with ShutdownError instead of hanging; afterwards
/// raise_root_cause names the failure. api::run_ranks_piped runs this over
/// a mailbox fabric, or one forked process per rank over sockets under the
/// same policy; the engines' in-process train() and the proxies call it
/// directly.
void run_ranks(Fabric& fabric, const std::function<void(PartId)>& rank_fn);

/// Completion set over a batch of requests: wait_any-style progress built
/// on Request::test(). The streaming halo pipeline posts one irecv per
/// peer, then drains the set as messages land instead of blocking on a
/// single MPI_Waitall barrier — poll() is one nonblocking probe pass,
/// wait_any() blocks until at least one pending request completes.
///
/// Completion indices are reported exactly once, in arrival order within a
/// pass; the caller owns any ordering policy on top (the trainer buffers
/// arrivals and applies them in fixed peer order for determinism).
class RequestSet {
 public:
  RequestSet() = default;
  RequestSet(RequestSet&&) = default;
  RequestSet& operator=(RequestSet&&) = default;
  RequestSet(const RequestSet&) = delete;
  RequestSet& operator=(const RequestSet&) = delete;

  /// Append a request; returns its index within the set.
  std::size_t add(Request req);

  [[nodiscard]] std::size_t size() const { return requests_.size(); }
  /// Requests not yet observed complete by poll()/wait_any()/wait_all().
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] bool all_done() const { return pending_ == 0; }

  /// One nonblocking probe pass: test() every pending request, append
  /// the indices that completed during this pass to `completed` (arrival
  /// scan order). Returns how many completed this pass.
  std::size_t poll(std::vector<std::size_t>& completed);

  /// Block until at least one pending request completes (poll loop with a
  /// cooperative yield — the fabric has no multi-mailbox condvar). Appends
  /// the newly completed indices; returns the count. No-op returning 0
  /// when nothing is pending.
  std::size_t wait_any(std::vector<std::size_t>& completed);

  /// Complete everything still pending (MPI_Waitall over the remainder).
  void wait_all();

  /// Access a member request (e.g. to take_floats() after completion).
  [[nodiscard]] Request& at(std::size_t i) { return requests_.at(i); }

 private:
  std::vector<Request> requests_;
  std::vector<char> reported_;  // index already handed to the caller
  std::size_t pending_ = 0;
};

} // namespace bnsgcn::comm

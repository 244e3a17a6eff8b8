#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/transport.hpp"
#include "common/barrier.hpp"

namespace bnsgcn::comm {

/// In-process mailbox transport over `nranks` logical ranks (one thread
/// each): the deterministic test double. Sends are eager deposits into an
/// unbounded per-pair queue (like an eager-protocol MPI send); collectives
/// run over shared contribution slots and a two-phase barrier. Substitutes
/// for Gloo/NCCL; see docs/ARCHITECTURE.md §3.
class MailboxTransport final : public Transport {
 public:
  explicit MailboxTransport(PartId nranks);

  [[nodiscard]] PartId nranks() const override { return nranks_; }
  [[nodiscard]] bool serves(PartId rank) const override {
    return rank >= 0 && rank < nranks_;
  }
  [[nodiscard]] TimingSource timing() const override {
    return TimingSource::kSimulated;
  }

  void send(PartId from, PartId to, Wire msg) override;
  bool try_recv(PartId rank, PartId from, int tag, Wire& out) override;
  [[nodiscard]] Wire recv(PartId rank, PartId from, int tag) override;

  void barrier(PartId rank) override;
  void allreduce_sum(PartId rank, std::span<float> data) override;
  [[nodiscard]] double allreduce_sum_scalar(PartId rank,
                                            double value) override;
  [[nodiscard]] double allreduce_max_scalar(PartId rank,
                                            double value) override;
  [[nodiscard]] std::vector<std::vector<NodeId>> allgather_ids(
      PartId rank, std::vector<NodeId> ids) override;
  [[nodiscard]] std::vector<std::vector<double>> allgather_doubles(
      PartId rank, const std::vector<double>& vals) override;

  void shutdown(PartId rank) override;

  /// Test-only arrival-order shuffle: every message deposited after this
  /// call is held back for a seeded-pseudorandom number of *nonblocking*
  /// probes (0..max_hold-1) — each failed try_recv pass over its mailbox
  /// decrements the hold — so the completion order a RequestSet observes
  /// is scrambled relative to the deposit order. Blocking receives ignore
  /// holds entirely, so nothing can deadlock and blocking-mode schedules
  /// are unaffected. Byte accounting is untouched (it lives above the
  /// transport, at receive completion). This exists for the schedule-fuzz
  /// harness: training results must be bit-exact under any arrival order,
  /// because the consumers buffer arrivals and apply them in fixed peer
  /// order. Call before the rank threads start.
  void enable_delivery_shuffle(std::uint64_t seed, int max_hold) override;

 private:
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Wire> queue;
  };

  Mailbox& mailbox(PartId from, PartId to) {
    return *mailboxes_[static_cast<std::size_t>(from) *
                           static_cast<std::size_t>(nranks_) +
                       static_cast<std::size_t>(to)];
  }
  /// Hold count of a deposited message under the shuffle (0 when the
  /// shuffle is off). A pure function of (seed, from, to, tag) — stable
  /// message identity, not a deposit counter — so the holds a given seed
  /// produces are independent of thread scheduling and a failing fuzz
  /// draw replays with the identical arrival perturbation.
  [[nodiscard]] int hold_of(PartId from, PartId to, int tag) const;
  void check_alive() const;

  PartId nranks_;
  bool shuffle_ = false;
  std::uint64_t shuffle_seed_ = 0;
  int shuffle_max_hold_ = 0;
  std::atomic<bool> stopped_{false};
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Collective scratch: per-rank contribution slots + two-phase barrier.
  Barrier barrier_;
  std::vector<std::vector<float>> reduce_slots_;
  std::vector<double> scalar_slots_;
  std::vector<std::vector<NodeId>> gather_slots_;
  std::vector<std::vector<double>> dgather_slots_;
};

} // namespace bnsgcn::comm

#include "comm/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "comm/mailbox_transport.hpp"
#include "common/check.hpp"

namespace bnsgcn::comm {

RankStats RankStats::operator-(const RankStats& before) const {
  RankStats d;
  for (std::size_t c = 0; c < tx_bytes.size(); ++c) {
    d.tx_bytes[c] = tx_bytes[c] - before.tx_bytes[c];
    d.rx_bytes[c] = rx_bytes[c] - before.rx_bytes[c];
    d.tx_msgs[c] = tx_msgs[c] - before.tx_msgs[c];
    d.rx_msgs[c] = rx_msgs[c] - before.rx_msgs[c];
  }
  return d;
}

double RankStats::sim_seconds(TrafficClass cls, const CostModel& cost) const {
  const auto i = static_cast<int>(cls);
  return cost.duplex_time(tx_bytes[i], tx_msgs[i], rx_bytes[i], rx_msgs[i]);
}

Fabric::Fabric(PartId nranks, CostModel cost)
    : Fabric(std::make_unique<MailboxTransport>(nranks), cost) {}

Fabric::Fabric(std::unique_ptr<Transport> transport, CostModel cost)
    : transport_(std::move(transport)), cost_(cost) {
  BNSGCN_CHECK(transport_ != nullptr && transport_->nranks() >= 1);
  const PartId n = transport_->nranks();
  endpoints_.reserve(static_cast<std::size_t>(n));
  for (PartId r = 0; r < n; ++r)
    endpoints_.push_back(std::unique_ptr<Endpoint>(new Endpoint(*this, r)));
}

Endpoint& Fabric::endpoint(PartId rank) {
  BNSGCN_CHECK(rank >= 0 && rank < nranks());
  BNSGCN_CHECK_MSG(transport_->serves(rank),
                   "this process's transport does not carry the rank");
  return *endpoints_[static_cast<std::size_t>(rank)];
}

std::int64_t Fabric::total_rx_bytes(TrafficClass cls) const {
  std::int64_t sum = 0;
  for (const auto& ep : endpoints_)
    sum += ep->stats().rx_bytes[static_cast<int>(cls)];
  return sum;
}

void Fabric::enable_delivery_shuffle(std::uint64_t seed, int max_hold) {
  transport_->enable_delivery_shuffle(seed, max_hold);
}

bool Request::test() {
  if (done()) return true;
  Endpoint& ep = *state_->owner;
  if (ep.transport().try_recv(ep.rank(), state_->from, state_->tag,
                              state_->payload)) {
    state_->done = true;
    ep.account_rx(state_->cls, state_->payload);
  }
  return done();
}

void Request::wait() {
  if (done()) return;
  Endpoint& ep = *state_->owner;
  state_->payload = ep.transport().recv(ep.rank(), state_->from, state_->tag);
  state_->done = true;
  ep.account_rx(state_->cls, state_->payload);
}

std::vector<float> Request::take_floats() {
  wait();
  BNSGCN_CHECK(state_ != nullptr);
  return std::move(state_->payload.floats);
}

Wire Request::take_payload() {
  wait();
  BNSGCN_CHECK(state_ != nullptr);
  return std::move(state_->payload);
}

void run_ranks(Fabric& fabric, const std::function<void(PartId)>& rank_fn) {
  const auto m = static_cast<std::size_t>(fabric.nranks());
  std::vector<std::exception_ptr> errors(m);
  // lint: allow(raw-thread) — the rank runtime: one OS thread per
  // in-process rank; kernel parallelism inside a rank goes through the pool.
  std::vector<std::thread> threads;
  threads.reserve(m);
  for (PartId r = 0; r < fabric.nranks(); ++r) {
    threads.emplace_back([&, r] {
      try {
        rank_fn(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        fabric.shutdown(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  // A ShutdownError is collateral of some other rank's failure; anything
  // else propagates straight out of the try as the root cause.
  std::exception_ptr collateral;
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const ShutdownError&) {
      if (!collateral) collateral = e;
    }
  }
  if (collateral) std::rethrow_exception(collateral);
}

void wait_all(std::span<Request> requests) {
  // First drain whatever already arrived without blocking, then block on
  // the stragglers — the usual Waitall progression.
  for (auto& r : requests) (void)r.test();
  for (auto& r : requests) r.wait();
}

std::size_t RequestSet::add(Request req) {
  const std::size_t idx = requests_.size();
  requests_.push_back(std::move(req));
  reported_.push_back(0);
  ++pending_;
  return idx;
}

std::size_t RequestSet::poll(std::vector<std::size_t>& completed) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    if (reported_[i]) continue;
    if (requests_[i].test()) {
      reported_[i] = 1;
      --pending_;
      completed.push_back(i);
      ++n;
    }
  }
  return n;
}

std::size_t RequestSet::wait_any(std::vector<std::size_t>& completed) {
  if (pending_ == 0) return 0;
  for (int empty_passes = 0;; ++empty_passes) {
    const std::size_t n = poll(completed);
    if (n > 0) return n;
    // Nothing landed this pass: let sender threads run. A condvar across
    // several mailboxes (or socket inboxes) would need fabric-level
    // plumbing, so this polls — but a bare spin-yield would contend with
    // the ranks still computing (and inflate their measured compute on
    // oversubscribed hosts), so after a burst of empty passes back off to
    // a real sleep. Every backend's try_recv is a pure probe, so bytes
    // keep moving meanwhile: mailbox senders deposit directly, socket
    // bytes cross on the transport's I/O thread.
    if (empty_passes < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void RequestSet::wait_all() {
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    if (reported_[i]) continue;
    requests_[i].wait();
    reported_[i] = 1;
    --pending_;
  }
}

PartId Endpoint::nranks() const { return fabric_.nranks(); }

TimingSource Endpoint::timing() const { return fabric_.timing(); }

Transport& Endpoint::transport() { return *fabric_.transport_; }

namespace {

/// Accounted payload bytes of a message: its floats plus its ids.
std::int64_t wire_bytes(const Wire& msg) {
  return static_cast<std::int64_t>(msg.floats.size() * sizeof(float)) +
         static_cast<std::int64_t>(msg.ids.size() * sizeof(NodeId));
}

} // namespace

void Endpoint::account_tx(TrafficClass cls, const Wire& msg) {
  stats_.tx_bytes[static_cast<int>(cls)] += wire_bytes(msg);
  ++stats_.tx_msgs[static_cast<int>(cls)];
}

void Endpoint::account_rx(TrafficClass cls, const Wire& msg) {
  stats_.rx_bytes[static_cast<int>(cls)] += wire_bytes(msg);
  ++stats_.rx_msgs[static_cast<int>(cls)];
}

void Endpoint::post(PartId to, Wire msg, TrafficClass cls) {
  BNSGCN_CHECK(to >= 0 && to < nranks() && to != rank_);
  account_tx(cls, msg);
  transport().send(rank_, to, std::move(msg));
}

void Endpoint::send_floats(PartId to, int tag, std::vector<float> payload,
                           TrafficClass cls) {
  post(to,
       Wire{.tag = tag,
            .kind = WireKind::kFloats,
            .floats = std::move(payload),
            .ids = {}},
       cls);
}

std::vector<float> Endpoint::recv_floats(PartId from, int tag,
                                         TrafficClass cls) {
  BNSGCN_CHECK(from >= 0 && from < fabric_.nranks() && from != rank_);
  Wire msg = transport().recv(rank_, from, tag);
  account_rx(cls, msg);
  return std::move(msg.floats);
}

void Endpoint::send_ids(PartId to, int tag, std::vector<NodeId> payload,
                        TrafficClass cls) {
  post(to,
       Wire{.tag = tag,
            .kind = WireKind::kIds,
            .floats = {},
            .ids = std::move(payload)},
       cls);
}

std::vector<NodeId> Endpoint::recv_ids(PartId from, int tag,
                                       TrafficClass cls) {
  BNSGCN_CHECK(from >= 0 && from < fabric_.nranks() && from != rank_);
  Wire msg = transport().recv(rank_, from, tag);
  account_rx(cls, msg);
  return std::move(msg.ids);
}

Request Endpoint::isend_floats(PartId to, int tag, std::vector<float> payload,
                               TrafficClass cls) {
  send_floats(to, tag, std::move(payload), cls);
  return {};
}

void Endpoint::send_halo(PartId to, int tag, std::vector<NodeId> present,
                         std::vector<float> rows, TrafficClass cls) {
  post(to,
       Wire{.tag = tag,
            .kind = WireKind::kHaloDelta,
            .floats = std::move(rows),
            .ids = std::move(present)},
       cls);
}

std::vector<float> Endpoint::acquire_floats(std::size_t n) {
  if (!float_pool_.empty()) {
    std::vector<float> buf = std::move(float_pool_.back());
    float_pool_.pop_back();
    buf.resize(n);
    return buf;
  }
  return std::vector<float>(n);
}

void Endpoint::release_floats(std::vector<float> buf) {
  // Bounded so a pathological schedule cannot hoard memory; past the cap
  // the buffer just frees as before the pool existed.
  constexpr std::size_t kMaxPooled = 64;
  if (buf.capacity() == 0 || float_pool_.size() >= kMaxPooled) return;
  float_pool_.push_back(std::move(buf));
}

Request Endpoint::irecv_floats(PartId from, int tag, TrafficClass cls) {
  BNSGCN_CHECK(from >= 0 && from < fabric_.nranks() && from != rank_);
  auto state = std::make_unique<Request::State>();
  state->owner = this;
  state->from = from;
  state->tag = tag;
  state->cls = cls;
  return Request(std::move(state));
}

std::vector<Wire> Endpoint::allgather_wire(Wire mine) {
  const int tag = next_coll_tag();
  mine.tag = tag;
  const PartId n = nranks();
  for (PartId j = 0; j < n; ++j)
    if (j != rank_) transport().send(rank_, j, mine);
  std::vector<Wire> out(static_cast<std::size_t>(n));
  for (PartId j = 0; j < n; ++j)
    out[static_cast<std::size_t>(j)] =
        j == rank_ ? std::move(mine) : transport().recv(rank_, j, tag);
  return out;
}

void Endpoint::barrier() {
  const int tag = next_coll_tag();
  const Wire ping{.tag = tag, .kind = WireKind::kFloats,
                  .floats = {}, .ids = {}};
  if (rank_ == 0) {
    for (PartId j = 1; j < nranks(); ++j) (void)transport().recv(rank_, j, tag);
    for (PartId j = 1; j < nranks(); ++j) transport().send(rank_, j, ping);
  } else {
    transport().send(rank_, 0, ping);
    (void)transport().recv(rank_, 0, tag);
  }
}

void Endpoint::allreduce_sum(std::span<float> data, TrafficClass cls) {
  const int tag = next_coll_tag();
  if (rank_ == 0) {
    for (PartId j = 1; j < nranks(); ++j) {
      const Wire c = transport().recv(rank_, j, tag);
      BNSGCN_CHECK(c.floats.size() == data.size());
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += c.floats[i];
    }
    const Wire sum{.tag = tag, .kind = WireKind::kFloats,
                   .floats = {data.begin(), data.end()}, .ids = {}};
    for (PartId j = 1; j < nranks(); ++j) transport().send(rank_, j, sum);
  } else {
    transport().send(rank_, 0,
                     Wire{.tag = tag, .kind = WireKind::kFloats,
                          .floats = {data.begin(), data.end()}, .ids = {}});
    const Wire sum = transport().recv(rank_, 0, tag);
    BNSGCN_CHECK(sum.floats.size() == data.size());
    std::copy(sum.floats.begin(), sum.floats.end(), data.begin());
  }
  // Accounted as a ring allreduce, the law CostModel::allreduce_time
  // prices, whatever algorithm moved the bytes: each rank moves
  // 2*(n-1)/n of the payload.
  const PartId n = nranks();
  if (n > 1) {
    const auto payload = static_cast<std::int64_t>(
        2.0 * static_cast<double>(n - 1) / static_cast<double>(n) *
        static_cast<double>(data.size() * sizeof(float)));
    stats_.tx_bytes[static_cast<int>(cls)] += payload;
    stats_.rx_bytes[static_cast<int>(cls)] += payload;
    stats_.tx_msgs[static_cast<int>(cls)] += 2 * (n - 1);
    stats_.rx_msgs[static_cast<int>(cls)] += 2 * (n - 1);
  }
}

double Endpoint::allreduce_sum_scalar(double value) {
  double sum = 0.0;
  for (const auto& v : allgather_doubles({value})) sum += v.at(0);
  return sum;
}

double Endpoint::allreduce_max_scalar(double value) {
  const auto all = allgather_doubles({value});
  double mx = all[0].at(0);
  for (const auto& v : all) mx = std::max(mx, v.at(0));
  return mx;
}

std::vector<std::vector<NodeId>> Endpoint::allgather_ids(
    std::vector<NodeId> ids, TrafficClass cls) {
  const PartId n = nranks();
  const auto own_bytes = static_cast<std::int64_t>(ids.size() * sizeof(NodeId));
  auto all = allgather_wire(Wire{.tag = 0,
                                 .kind = WireKind::kIds,
                                 .floats = {},
                                 .ids = std::move(ids)});
  std::vector<std::vector<NodeId>> out;
  out.reserve(all.size());
  std::int64_t rx = 0;
  for (PartId r = 0; r < n; ++r) {
    auto& got = all[static_cast<std::size_t>(r)].ids;
    if (r != rank_)
      rx += static_cast<std::int64_t>(got.size() * sizeof(NodeId));
    out.push_back(std::move(got));
  }
  stats_.tx_bytes[static_cast<int>(cls)] += own_bytes * (n - 1);
  stats_.rx_bytes[static_cast<int>(cls)] += rx;
  stats_.tx_msgs[static_cast<int>(cls)] += n - 1;
  stats_.rx_msgs[static_cast<int>(cls)] += n - 1;
  return out;
}

std::vector<std::vector<double>> Endpoint::allgather_doubles(
    std::vector<double> vals) {
  auto all = allgather_wire(Wire{.tag = 0,
                                 .kind = WireKind::kDoubles,
                                 .floats = {},
                                 .ids = {},
                                 .doubles = std::move(vals)});
  std::vector<std::vector<double>> out;
  out.reserve(all.size());
  for (auto& w : all) out.push_back(std::move(w.doubles));
  return out;
}

} // namespace bnsgcn::comm

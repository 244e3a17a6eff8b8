#include "comm/mailbox_transport.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bnsgcn::comm {

MailboxTransport::MailboxTransport(PartId nranks) : nranks_(nranks) {
  BNSGCN_CHECK(nranks >= 1);
  mailboxes_.resize(static_cast<std::size_t>(nranks) *
                    static_cast<std::size_t>(nranks));
  for (auto& box : mailboxes_) box = std::make_unique<Mailbox>();
}

void MailboxTransport::check_alive() const {
  if (stopped_.load(std::memory_order_relaxed))
    throw ShutdownError("mailbox fabric shut down");
}

void MailboxTransport::enable_delivery_shuffle(std::uint64_t seed,
                                               int max_hold) {
  BNSGCN_CHECK(max_hold >= 1);
  shuffle_ = true;
  shuffle_seed_ = seed;
  shuffle_max_hold_ = max_hold;
}

int MailboxTransport::hold_of(PartId from, PartId to, int tag) const {
  if (!shuffle_) return 0;
  // splitmix64 over the message's stable identity (seed, from, to, tag) —
  // deliberately not a deposit counter, whose value would depend on the
  // interleaving of concurrent sender threads and make a failing fuzz
  // seed irreproducible. Tags are the trainer's per-phase sequence, so
  // (from, to, tag) names each boundary message uniquely within a run.
  std::uint64_t z = shuffle_seed_ ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         from)) << 42) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         to)) << 21) ^
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<int>(z % static_cast<std::uint64_t>(shuffle_max_hold_));
}

void MailboxTransport::send(PartId from, PartId to, Wire msg) {
  check_alive();
  const int hold = hold_of(from, to, msg.tag);
  auto& box = mailbox(from, to);
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(Deposit{.msg = std::move(msg), .hold = hold});
  }
  box.cv.notify_all();
}

bool MailboxTransport::try_recv(PartId rank, PartId from, int tag, Wire& out) {
  check_alive();
  auto& box = mailbox(from, rank);
  std::lock_guard<std::mutex> lock(box.mu);
  const auto it =
      std::find_if(box.queue.begin(), box.queue.end(),
                   [tag](const Deposit& d) { return d.msg.tag == tag; });
  if (it == box.queue.end()) return false;
  if (it->hold > 0) { // delivery shuffle: not yet "arrived" for probes
    --it->hold;
    return false;
  }
  out = std::move(it->msg);
  box.queue.erase(it);
  return true;
}

Wire MailboxTransport::recv(PartId rank, PartId from, int tag) {
  auto& box = mailbox(from, rank);
  std::unique_lock<std::mutex> lock(box.mu);
  for (;;) {
    if (stopped_.load(std::memory_order_relaxed))
      throw ShutdownError("mailbox fabric shut down");
    const auto it =
        std::find_if(box.queue.begin(), box.queue.end(),
                     [tag](const Deposit& d) { return d.msg.tag == tag; });
    if (it != box.queue.end()) {
      Wire msg = std::move(it->msg);
      box.queue.erase(it);
      return msg;
    }
    box.cv.wait(lock);
  }
}

void MailboxTransport::shutdown(PartId /*rank*/) {
  stopped_.store(true, std::memory_order_relaxed);
  for (auto& box : mailboxes_) {
    // Take the lock so a waiter between its predicate check and cv.wait
    // cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
}

} // namespace bnsgcn::comm

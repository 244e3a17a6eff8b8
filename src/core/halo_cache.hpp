#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace bnsgcn::core {

/// Outcome of one position of a cache step's request list.
enum class CacheAction : std::uint8_t {
  kHit = 0,        // receiver already holds the row: not sent
  kMissStore = 1,  // sent; the receiver stores (or refreshes) it
  kMissSend = 2,   // sent; not stored (no capacity, eviction not warranted)
};

/// One exchange's classification: per request position, whether the row
/// travels and where the receiver keeps it. `slot` is the store row for
/// kHit/kMissStore and -1 for kMissSend. hits + misses == positions.size().
struct CacheStep {
  std::vector<CacheAction> action;
  std::vector<NodeId> slot;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

/// Frequency-ordered directory of which boundary rows the remote end of one
/// (peer, layer) channel already holds — the FGNN-style feature cache
/// applied to the halo exchange (docs/ARCHITECTURE.md §9).
///
/// The directory is a pure deterministic function of the step sequence:
/// sender and receiver feed it the identical structural-position lists the
/// sampler already negotiates (EpochPlan::send_pos / recv_pos), so both
/// sides agree on every hit/miss/eviction with ZERO extra control traffic.
/// Because steps happen at post time, the state is independent of arrival
/// order, thread count and overlap mode — the schedule-fuzz cache axis
/// pins exactly that.
///
/// Eviction: capacity-bounded, least-frequently-requested first (ties
/// broken by position; a tie never evicts, so a marginal newcomer cannot
/// thrash a resident row). Rows requested in the current step are pinned —
/// a slot being read this exchange is never reused by it.
///
/// State is dense per position (positions index one channel's send set),
/// so a hit is O(1); a step that evicts sorts its resident positions once,
/// O(C log C) for C resident rows (docs/ARCHITECTURE.md §9.3).
class HaloCacheDir {
 public:
  explicit HaloCacheDir(NodeId capacity_rows = 0)
      : capacity_(capacity_rows > 0 ? capacity_rows : 0) {}

  /// Classify one exchange's request list (strictly increasing structural
  /// positions). `max_age` bounds staleness for cached rows: a row stored
  /// at epoch e hits through epoch e + max_age and is refreshed (resent
  /// and restored) after; max_age < 0 means values never go stale
  /// (layer-0 input features are epoch-invariant).
  [[nodiscard]] CacheStep step(std::span<const NodeId> positions, int epoch,
                               int max_age);

  [[nodiscard]] NodeId capacity() const { return capacity_; }
  [[nodiscard]] NodeId size() const {
    return static_cast<NodeId>(slot_pos_.size());
  }

 private:
  NodeId capacity_ = 0;
  std::int64_t step_id_ = 0;
  // Per position, grown to the largest position requested so far.
  std::vector<std::int64_t> freq_;     // requests over all steps
  std::vector<NodeId> slot_;           // store row, -1 when not resident
  std::vector<int> stored_epoch_;      // epoch the resident row was stored
  std::vector<std::int64_t> last_step_;  // pin against same-step eviction
  // Per slot: its position. Slots stay dense, so size() == its length.
  std::vector<NodeId> slot_pos_;
};

} // namespace bnsgcn::core

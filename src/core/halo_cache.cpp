#include "core/halo_cache.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bnsgcn::core {

CacheStep HaloCacheDir::step(std::span<const NodeId> positions, int epoch,
                             int max_age) {
  ++step_id_;
  CacheStep out;
  out.action.reserve(positions.size());
  out.slot.reserve(positions.size());

  // Phase 1: bump the request frequency of every position. Done before any
  // classification so eviction comparisons within this step see
  // consistent frequencies.
  NodeId prev = -1;
  for (const NodeId p : positions) {
    BNSGCN_CHECK_MSG(p > prev, "cache step positions must strictly increase");
    prev = p;
  }
  if (!positions.empty() &&
      static_cast<std::size_t>(positions.back()) >= freq_.size()) {
    const auto n = static_cast<std::size_t>(positions.back()) + 1;
    freq_.resize(n, 0);
    slot_.resize(n, -1);
    stored_epoch_.resize(n, 0);
    last_step_.resize(n, 0);
  }
  for (const NodeId p : positions) ++freq_[static_cast<std::size_t>(p)];

  // Phase 2: classify in list order. The eviction order — the positions
  // resident at the step's first eviction attempt, ascending by (freq,
  // position) — is sorted only if some miss finds the directory full.
  std::vector<NodeId> victims;
  std::size_t cursor = 0;
  auto evictable = [&](NodeId q) {  // not evicted, not touched this step
    const auto i = static_cast<std::size_t>(q);
    return slot_[i] >= 0 && last_step_[i] != step_id_;
  };
  for (const NodeId p : positions) {
    const auto i = static_cast<std::size_t>(p);
    if (slot_[i] >= 0) {
      last_step_[i] = step_id_;
      const bool fresh = max_age < 0 || epoch - stored_epoch_[i] <= max_age;
      if (fresh) {
        out.action.push_back(CacheAction::kHit);
        ++out.hits;
      } else {
        stored_epoch_[i] = epoch;  // refreshed in place, same slot
        out.action.push_back(CacheAction::kMissStore);
        ++out.misses;
      }
      out.slot.push_back(slot_[i]);
      continue;
    }
    // Uncached position. While below capacity, slots fill densely (used
    // slots are exactly [0, size)); once full, evict the least-frequently
    // requested resident — but only on a strictly higher count, and never
    // one touched by this step (its slot is being read right now).
    NodeId s = -1;
    if (size() < capacity_) {
      s = size();
      slot_pos_.push_back(p);
    } else if (capacity_ > 0) {
      // Frequencies are final after phase 1, and within phase 2 the
      // evictable set only shrinks: entries leave it when touched or
      // evicted, and stored rows are born touched. So the first evictable
      // entry of the order sorted here only moves forward through it.
      // Positions are unique, so the order is total: both ends of the
      // channel sort it alike. The directory is full, so once sorted the
      // list is never empty.
      if (victims.empty()) {
        victims = slot_pos_;
        std::sort(victims.begin(), victims.end(), [this](NodeId a, NodeId b) {
          const auto fa = freq_[static_cast<std::size_t>(a)];
          const auto fb = freq_[static_cast<std::size_t>(b)];
          return fa != fb ? fa < fb : a < b;
        });
      }
      while (cursor < victims.size() && !evictable(victims[cursor])) ++cursor;
      if (cursor < victims.size()) {
        const auto v = static_cast<std::size_t>(victims[cursor]);
        if (freq_[v] < freq_[i]) {
          s = slot_[v];
          slot_[v] = -1;
          slot_pos_[static_cast<std::size_t>(s)] = p;
        }
      }
    }
    if (s >= 0) {
      slot_[i] = s;
      stored_epoch_[i] = epoch;
      last_step_[i] = step_id_;
      out.action.push_back(CacheAction::kMissStore);
    } else {
      out.action.push_back(CacheAction::kMissSend);
    }
    out.slot.push_back(s);
    ++out.misses;
  }
  return out;
}

} // namespace bnsgcn::core

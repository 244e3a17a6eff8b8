#include "core/halo_exchange.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace bnsgcn::core {

using comm::TrafficClass;

void validate_exchange_spec(const ExchangeSpec& xs) {
  BNSGCN_CHECK_MSG(xs.inner_chunk_rows >= 0,
                   "inner_chunk_rows must be >= 0, got " +
                       std::to_string(xs.inner_chunk_rows));
  BNSGCN_CHECK_MSG(xs.cache_mb >= 0,
                   "cache_mb must be >= 0, got " + std::to_string(xs.cache_mb));
  // The directory capacity is computed from cache_mb MiB in bytes.
  constexpr std::int64_t kMaxCacheMb =
      std::numeric_limits<std::int64_t>::max() >> 20;
  BNSGCN_CHECK_MSG(xs.cache_mb <= kMaxCacheMb,
                   "cache_mb overflows a byte count, got " +
                       std::to_string(xs.cache_mb));
  BNSGCN_CHECK_MSG(xs.cache_staleness >= 0,
                   "cache_staleness must be >= 0, got " +
                       std::to_string(xs.cache_staleness));
}

HaloExchanger::HaloExchanger(comm::Endpoint& ep, const Options& opts)
    : ep_(ep), opt_(opts) {
  // Halo cache (docs/ARCHITECTURE.md §9): one send/recv directory pair
  // per (layer, peer). Layer 0 always caches when enabled (its input
  // features are epoch-invariant); deeper layers only under a positive
  // staleness bound. Capacity is rows per (peer, layer, direction) at
  // that layer's feature width. The recv-side row store grows lazily —
  // slots fill densely, so memory tracks actual use, not the budget.
  const ExchangeSpec& xs = opt_.exchange;
  if (xs.cache_mb > 0) {
    cache_.resize(static_cast<std::size_t>(opt_.num_layers));
    for (int l = 0; l < opt_.num_layers; ++l) {
      if (l > 0 && xs.cache_staleness <= 0) continue;
      const std::int64_t d = (l == 0) ? opt_.feat_dim : opt_.hidden;
      const std::int64_t cap =
          xs.cache_mb * (1 << 20) /
          (d * static_cast<std::int64_t>(sizeof(float)));
      auto& per_peer = cache_[static_cast<std::size_t>(l)];
      per_peer.resize(static_cast<std::size_t>(ep_.nranks()));
      for (auto& pc : per_peer) {
        pc.send_dir = HaloCacheDir(static_cast<NodeId>(
            std::min<std::int64_t>(cap, std::numeric_limits<NodeId>::max())));
        pc.recv_dir = HaloCacheDir(pc.send_dir.capacity());
      }
    }
  }
}

void HaloExchanger::begin_epoch(int epoch) {
  epoch_ = epoch;
  ep_cache_hits_ = 0;
  ep_cache_misses_ = 0;
  ep_bytes_saved_ = 0;
}

PendingExchange HaloExchanger::post_forward(const Matrix& h_inner,
                                            const EpochPlan& plan, int tag,
                                            int channel) {
  const std::int64_t d = h_inner.cols();
  PendingExchange px;
  px.layer = channel;
  px.cached = cache_enabled(channel);
  std::int64_t tx_bytes = 0, rx_bytes = 0, tx_msgs = 0, rx_msgs = 0;
  for (PartId j = 0; j < ep_.nranks(); ++j) {
    const auto& rows = plan.send_rows[static_cast<std::size_t>(j)];
    if (rows.empty()) continue;
    ++tx_msgs;
    if (!px.cached) {
      auto payload =
          ep_.acquire_floats(rows.size() * static_cast<std::size_t>(d));
      for (std::size_t t = 0; t < rows.size(); ++t) {
        const float* s =
            h_inner.data() + static_cast<std::int64_t>(rows[t]) * d;
        std::copy(s, s + d,
                  payload.data() + t * static_cast<std::size_t>(d));
      }
      tx_bytes += static_cast<std::int64_t>(rows.size()) * d *
                  static_cast<std::int64_t>(sizeof(float));
      ep_.send_floats(j, tag, std::move(payload), TrafficClass::kFeature);
      continue;
    }
    // Cached channel: step the sender-side directory with the same
    // structural positions the receiver steps its own with, then ship
    // only the rows it classified as misses (index list + delta rows).
    auto& pc = cache_[static_cast<std::size_t>(channel)]
                     [static_cast<std::size_t>(j)];
    const CacheStep cs = pc.send_dir.step(
        plan.send_pos[static_cast<std::size_t>(j)], epoch_,
        cache_max_age(channel));
    std::vector<NodeId> present;
    present.reserve(static_cast<std::size_t>(cs.misses));
    for (std::size_t t = 0; t < rows.size(); ++t)
      if (cs.action[t] != CacheAction::kHit)
        present.push_back(static_cast<NodeId>(t));
    auto payload = ep_.acquire_floats(present.size() *
                                      static_cast<std::size_t>(d));
    for (std::size_t m = 0; m < present.size(); ++m) {
      const NodeId row = rows[static_cast<std::size_t>(present[m])];
      const float* s = h_inner.data() + static_cast<std::int64_t>(row) * d;
      std::copy(s, s + d, payload.data() + m * static_cast<std::size_t>(d));
    }
    tx_bytes += static_cast<std::int64_t>(payload.size() * sizeof(float)) +
                static_cast<std::int64_t>(present.size() * sizeof(NodeId));
    ep_.send_halo(j, tag, std::move(present), std::move(payload),
                  TrafficClass::kFeature);
  }
  for (PartId j = 0; j < ep_.nranks(); ++j) {
    const auto& slots = plan.recv_slots[static_cast<std::size_t>(j)];
    if (slots.empty()) continue;
    px.peers.push_back(j);
    (void)px.recvs.add(ep_.irecv_floats(j, tag, TrafficClass::kFeature));
    ++rx_msgs;
    std::int64_t peer_bytes = static_cast<std::int64_t>(slots.size()) * d *
                              static_cast<std::int64_t>(sizeof(float));
    if (px.cached) {
      // Step the recv-side directory NOW (post time): the classification
      // must not depend on when the peer's frame lands.
      auto& pc = cache_[static_cast<std::size_t>(channel)]
                       [static_cast<std::size_t>(j)];
      CacheStep cs = pc.recv_dir.step(
          plan.recv_pos[static_cast<std::size_t>(j)], epoch_,
          cache_max_age(channel));
      peer_bytes =
          cs.misses * d * static_cast<std::int64_t>(sizeof(float)) +
          cs.misses * static_cast<std::int64_t>(sizeof(NodeId));
      ep_cache_hits_ += cs.hits;
      ep_cache_misses_ += cs.misses;
      ep_bytes_saved_ +=
          cs.hits * d * static_cast<std::int64_t>(sizeof(float));
      px.cache_steps.push_back(std::move(cs));
    }
    rx_bytes += peer_bytes;
    px.tail_s = std::max(px.tail_s, opt_.cost.message_time(peer_bytes));
  }
  px.sim_s = opt_.cost.duplex_time(tx_bytes, tx_msgs, rx_bytes, rx_msgs);
  return px;
}

std::span<float> HaloExchanger::slab_rows(PendingExchange& px,
                                          const EpochPlan& plan, std::size_t k,
                                          comm::Wire& msg, std::int64_t d) {
  const auto j = static_cast<std::size_t>(px.peers[k]);
  const auto& slots = plan.recv_slots[j];
  if (!px.cached) {
    BNSGCN_CHECK(msg.floats.size() ==
                 slots.size() * static_cast<std::size_t>(d));
    return msg.floats;
  }
  auto& pc = cache_[static_cast<std::size_t>(px.layer)][j];
  const CacheStep& cs = px.cache_steps.at(k);
  fold_scratch_.resize(slots.size() * static_cast<std::size_t>(d));
  std::size_t next = 0;
  for (std::size_t t = 0; t < slots.size(); ++t) {
    float* dst = fold_scratch_.data() + t * static_cast<std::size_t>(d);
    if (cs.action[t] == CacheAction::kHit) {
      const float* src = pc.store.data() +
                         static_cast<std::size_t>(cs.slot[t]) *
                             static_cast<std::size_t>(d);
      std::copy(src, src + d, dst);
      continue;
    }
    // Divergence detector: the sender's directory must have classified
    // exactly the same positions as misses, in the same order.
    BNSGCN_CHECK_MSG(next < msg.ids.size() &&
                         msg.ids[next] == static_cast<NodeId>(t),
                     "halo cache directories diverged");
    const float* src =
        msg.floats.data() + next * static_cast<std::size_t>(d);
    if (cs.action[t] == CacheAction::kMissStore) {
      const auto need = (static_cast<std::size_t>(cs.slot[t]) + 1) *
                        static_cast<std::size_t>(d);
      if (pc.store.size() < need) pc.store.resize(need);
      std::copy(src, src + d,
                pc.store.data() + static_cast<std::size_t>(cs.slot[t]) *
                                      static_cast<std::size_t>(d));
    }
    std::copy(src, src + d, dst);
    ++next;
  }
  BNSGCN_CHECK_MSG(next == msg.ids.size() &&
                       next * static_cast<std::size_t>(d) ==
                           msg.floats.size(),
                   "halo delta frame size mismatch");
  return fold_scratch_;
}

ExchangeRecord HaloExchanger::forward_layer(const ForwardPass& pass,
                                            nn::Layer& layer,
                                            const Matrix& h_in, int tag,
                                            int channel, Matrix& out) {
  const EpochPlan& plan = pass.plan;
  const std::int64_t d = h_in.cols();
  PendingExchange px = post_forward(h_in, plan, tag, channel);
  FoldDriver fold(px, opt_.exchange.overlap);
  // The in-flight window is accumulated phase by phase (not wall time
  // across the loop) so interleaved fold work is not counted twice — the
  // driver tracks the fold share separately.
  Accumulator window_acc;
  {
    ScopedTimer t(pass.compute_acc);
    ScopedTimer w(window_acc);
    layer.forward_inner_begin(plan.adj, h_in, pass.training);
    if (pass.inc.offsets.empty()) pass.inc.build(plan.adj, plan.adj.n_dst);
    layer.forward_halo_begin(plan.adj, pass.inc);
  }
  // Forward fold: resolve the slab (cache-aware), scale it, and hand it to
  // the layer's incremental protocol. Scaling happens on the assembled slab
  // in the same element order as the uncached in-place scale, so the fp
  // stream is unchanged by the cache.
  const float scale = plan.halo_scale;
  const auto apply = [&](std::size_t k, comm::Wire msg) {
    const auto rows = slab_rows(px, plan, k, msg, d);
    if (scale != 1.0f)
      for (float& v : rows) v *= scale;
    layer.forward_halo_fold(
        plan.adj, plan.recv_slots[static_cast<std::size_t>(px.peers[k])],
        rows);
    ep_.release_floats(std::move(msg.floats));
  };
  const NodeId n_dst = plan.adj.n_dst;
  const NodeId step =
      opt_.exchange.inner_chunk_rows > 0 ? opt_.exchange.inner_chunk_rows
                                         : n_dst;
  for (NodeId r0 = 0; r0 < n_dst; r0 += step) {
    {
      ScopedTimer t(pass.compute_acc);
      ScopedTimer w(window_acc);
      layer.forward_inner_chunk(plan.adj, r0,
                                std::min<NodeId>(r0 + step, n_dst));
    }
    fold.poll(apply, pass.compute_acc);
  }
  fold.drain(apply, pass.compute_acc);
  {
    ScopedTimer t(pass.compute_acc);
    out = layer.forward_halo_finish(plan.adj, pass.inv_deg);
  }
  return fold.record(window_acc.seconds());
}

PendingExchange HaloExchanger::post_backward(const Matrix& dhalo,
                                             const EpochPlan& plan,
                                             float scale, int tag) {
  const std::int64_t d = dhalo.cols();
  PendingExchange px;
  std::int64_t tx_bytes = 0, rx_bytes = 0, tx_msgs = 0, rx_msgs = 0;
  for (PartId j = 0; j < ep_.nranks(); ++j) {
    const auto& slots = plan.recv_slots[static_cast<std::size_t>(j)];
    if (slots.empty()) continue;
    auto payload =
        ep_.acquire_floats(slots.size() * static_cast<std::size_t>(d));
    for (std::size_t t = 0; t < slots.size(); ++t) {
      const float* src =
          dhalo.data() + static_cast<std::int64_t>(slots[t]) * d;
      float* dst = payload.data() + t * static_cast<std::size_t>(d);
      for (std::int64_t c = 0; c < d; ++c) dst[c] = scale * src[c];
    }
    tx_bytes += static_cast<std::int64_t>(slots.size()) * d *
                static_cast<std::int64_t>(sizeof(float));
    ++tx_msgs;
    ep_.send_floats(j, tag, std::move(payload), TrafficClass::kFeature);
  }
  for (PartId j = 0; j < ep_.nranks(); ++j) {
    const auto& rows = plan.send_rows[static_cast<std::size_t>(j)];
    if (rows.empty()) continue;
    px.peers.push_back(j);
    (void)px.recvs.add(ep_.irecv_floats(j, tag, TrafficClass::kFeature));
    const std::int64_t peer_bytes = static_cast<std::int64_t>(rows.size()) *
                                    d *
                                    static_cast<std::int64_t>(sizeof(float));
    rx_bytes += peer_bytes;
    ++rx_msgs;
    px.tail_s = std::max(px.tail_s, opt_.cost.message_time(peer_bytes));
  }
  px.sim_s = opt_.cost.duplex_time(tx_bytes, tx_msgs, rx_bytes, rx_msgs);
  return px;
}

} // namespace bnsgcn::core

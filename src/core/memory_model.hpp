#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/fields.hpp"
#include "common/types.hpp"

namespace bnsgcn::core {

/// The paper's Eq. 4 memory model for a GraphSAGE layer with a mean
/// aggregator: Mem^(ℓ)(G_i) = (3·n_in + n_bd) · d^(ℓ)  (in elements; we
/// report bytes at fp32). The three n_in terms are the input features, the
/// aggregated features and the stored activations for backward; the n_bd
/// term is the received boundary-feature block. BNS replaces n_bd with the
/// sampled count, giving the Fig. 6 / Fig. 8 reductions.
struct MemoryModel {
  /// Bytes for one layer at input dimension d.
  [[nodiscard]] static std::int64_t layer_bytes(NodeId n_inner,
                                                NodeId n_boundary,
                                                std::int64_t d) {
    return (3 * static_cast<std::int64_t>(n_inner) +
            static_cast<std::int64_t>(n_boundary)) *
           d * static_cast<std::int64_t>(sizeof(float));
  }

  /// Bytes across a layer stack; `dims` holds each layer's input dimension
  /// (feature dim, hidden, ..., hidden).
  [[nodiscard]] static std::int64_t epoch_bytes(
      NodeId n_inner, NodeId n_boundary, std::span<const std::int64_t> dims) {
    std::int64_t total = 0;
    for (const std::int64_t d : dims)
      total += layer_bytes(n_inner, n_boundary, d);
    return total;
  }
};

/// Per-rank memory measurements for one training run.
struct MemoryReport {
  /// Eq. 4 with the *sampled* halo count, averaged over epochs.
  std::vector<double> model_bytes;
  /// Eq. 4 with the full halo (p = 1 requirement).
  std::vector<std::int64_t> full_bytes;

  [[nodiscard]] double max_model_bytes() const;
  [[nodiscard]] std::int64_t max_full_bytes() const;
  /// Fig. 6 quantity: 1 - max_p(mem) / max_p(mem at p=1).
  [[nodiscard]] double reduction_vs_full() const;
};

inline constexpr auto kMemoryReportFields =
    std::tuple{field("model_bytes", &MemoryReport::model_bytes),
               field("full_bytes", &MemoryReport::full_bytes)};

} // namespace bnsgcn::core

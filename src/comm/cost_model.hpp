#pragma once

#include <algorithm>
#include <cstdint>

#include "common/fields.hpp"

namespace bnsgcn::comm {

/// Analytic interconnect model: time = latency + bytes / bandwidth.
///
/// The repo runs all "ranks" as threads of one process, so physical message
/// time is a memcpy; the paper's experiments, however, are bottlenecked by
/// PCIe/Ethernet. Byte counts are measured exactly by the fabric and this
/// model converts them into simulated seconds for the throughput/breakdown
/// benches (Figs. 4–5, Table 6). See docs/ARCHITECTURE.md §1.
struct CostModel {
  double latency_s = 10e-6;        // per message
  double bytes_per_s = 12.0e9;     // PCIe3 x16 effective ~12 GB/s

  [[nodiscard]] double message_time(std::int64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bytes_per_s;
  }

  /// Wire time of a traffic volume in both directions at once: full
  /// duplex, so the slower direction sets the time.
  [[nodiscard]] double duplex_time(std::int64_t tx_bytes, std::int64_t tx_msgs,
                                   std::int64_t rx_bytes,
                                   std::int64_t rx_msgs) const {
    const double tx = static_cast<double>(tx_msgs) * latency_s +
                      static_cast<double>(tx_bytes) / bytes_per_s;
    const double rx = static_cast<double>(rx_msgs) * latency_s +
                      static_cast<double>(rx_bytes) / bytes_per_s;
    return std::max(tx, rx);
  }

  /// Ring allreduce on `bytes` across `nranks`: 2*(n-1)/n of the payload
  /// crosses each link, in 2*(n-1) latency-bound steps.
  [[nodiscard]] double allreduce_time(std::int64_t bytes, int nranks) const {
    if (nranks <= 1) return 0.0;
    const double payload =
        2.0 * static_cast<double>(nranks - 1) / static_cast<double>(nranks) *
        static_cast<double>(bytes);
    return 2.0 * (nranks - 1) * latency_s + payload / bytes_per_s;
  }

  /// Presets mirroring the paper's testbeds at face value.
  static CostModel pcie3_x16();    // single machine, 10×2080Ti over PCIe3

  /// Compute-normalized presets (the bench defaults). A CPU rank here
  /// computes ~500x slower than the paper's 2080Ti, so an interconnect at
  /// face-value bandwidth would make compute look dominant and destroy the
  /// paper's compute:communication ratios. These presets divide bandwidth
  /// by the same factor, preserving every ratio-based result (breakdown
  /// percentages, relative throughputs, crossovers). See
  /// docs/ARCHITECTURE.md §1.
  static CostModel scaled_pcie3();
  static CostModel scaled_multi_machine();
};

/// CostModel's field table (common/fields.hpp): TrainerConfig's "cost".
inline constexpr auto kCostModelFields =
    std::tuple{field("latency_s", &CostModel::latency_s),
               field("bytes_per_s", &CostModel::bytes_per_s)};

} // namespace bnsgcn::comm

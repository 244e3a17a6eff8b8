#include "comm/cost_model.hpp"

namespace bnsgcn::comm {

CostModel CostModel::pcie3_x16() {
  // Effective host-mediated GPU<->GPU bandwidth on PCIe3 x16 is well below
  // the 16 GB/s line rate once protocol overhead and the double hop are
  // paid; 8 GB/s with ~20us software latency matches Gloo-on-PCIe numbers.
  return {.latency_s = 20e-6, .bytes_per_s = 8.0e9};
}

CostModel CostModel::scaled_pcie3() {
  // 8 GB/s / ~500 (GPU-to-CPU compute ratio) ≈ 16 MB/s. Latency is kept
  // near wall-clock scale (it does not shrink with compute speed).
  return {.latency_s = 100e-6, .bytes_per_s = 16.0e6};
}

CostModel CostModel::scaled_multi_machine() {
  // 1 GB/s effective inter-machine bandwidth, same ~500x normalization.
  return {.latency_s = 250e-6, .bytes_per_s = 2.0e6};
}

} // namespace bnsgcn::comm

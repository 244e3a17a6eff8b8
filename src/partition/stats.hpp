#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "partition/partitioning.hpp"

namespace bnsgcn {

/// The quantities the paper reports about a partitioning:
///  - per-partition inner / boundary node counts and their ratio (Table 1),
///  - the boundary/inner ratio distribution (Fig. 3),
///  - total communication volume, which equals the total number of boundary
///    nodes (Eq. 3), plus the classic edge cut for comparison with min-cut
///    partitioners (Section 3.2 discussion).
struct PartitionStats {
  std::vector<NodeId> inner_count;     // |V_i|
  std::vector<NodeId> boundary_count;  // |B_i| — remote nodes needed by part i
  std::vector<EdgeId> send_volume;     // Vol(G_i) = sum_v D(v), v in part i
  EdgeId edge_cut = 0;                 // edges crossing partitions (undirected)
  EdgeId total_volume = 0;             // Eq. 3: sum_i |B_i| == sum_i Vol(G_i)

  [[nodiscard]] double ratio(PartId i) const {
    return static_cast<double>(boundary_count[static_cast<std::size_t>(i)]) /
           static_cast<double>(inner_count[static_cast<std::size_t>(i)]);
  }
  [[nodiscard]] double max_ratio() const;
};

[[nodiscard]] PartitionStats compute_stats(const Csr& g,
                                           const Partitioning& part);

} // namespace bnsgcn

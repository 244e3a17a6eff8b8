#include "partition/stats.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bnsgcn {

double PartitionStats::max_ratio() const {
  double mx = 0.0;
  for (std::size_t i = 0; i < inner_count.size(); ++i)
    mx = std::max(mx, ratio(static_cast<PartId>(i)));
  return mx;
}

PartitionStats compute_stats(const Csr& g, const Partitioning& part) {
  BNSGCN_CHECK(part.num_nodes() == g.n);
  const PartId m = part.nparts;
  PartitionStats st;
  st.inner_count.assign(static_cast<std::size_t>(m), 0);
  st.boundary_count.assign(static_cast<std::size_t>(m), 0);
  st.send_volume.assign(static_cast<std::size_t>(m), 0);

  for (NodeId v = 0; v < g.n; ++v)
    ++st.inner_count[static_cast<std::size_t>(
        part.owner[static_cast<std::size_t>(v)])];

  // D(v): number of distinct remote partitions containing a neighbor of v.
  // boundary_count[i] accumulates |B_i| = |{v : owner(v) != i, v has a
  // neighbor in i}| — each (v, remote part) pair adds one to the remote
  // part's boundary set and one to the owner's send volume.
  std::vector<NodeId> seen(static_cast<std::size_t>(m), -1);
  for (NodeId v = 0; v < g.n; ++v) {
    const PartId pv = part.owner[static_cast<std::size_t>(v)];
    for (const NodeId u : g.neighbors(v)) {
      const PartId pu = part.owner[static_cast<std::size_t>(u)];
      if (u > v && pu != pv) ++st.edge_cut;
      if (pu != pv && seen[static_cast<std::size_t>(pu)] != v) {
        seen[static_cast<std::size_t>(pu)] = v;
        ++st.send_volume[static_cast<std::size_t>(pv)];
        ++st.boundary_count[static_cast<std::size_t>(pu)];
      }
    }
  }
  for (const EdgeId vol : st.send_volume) st.total_volume += vol;
  return st;
}

} // namespace bnsgcn

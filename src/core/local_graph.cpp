#include "core/local_graph.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bnsgcn::core {

void LocalGraph::validate() const {
  BNSGCN_CHECK(std::is_sorted(inner_global.begin(), inner_global.end()));
  BNSGCN_CHECK(std::is_sorted(halo_global.begin(), halo_global.end()));
  BNSGCN_CHECK(halo_owner.size() == halo_global.size());
  BNSGCN_CHECK(adj.n_dst == n_inner());
  BNSGCN_CHECK(adj.n_src == n_inner() + n_halo());
  adj.validate();
  BNSGCN_CHECK(static_cast<NodeId>(inv_full_degree.size()) == n_inner());
  BNSGCN_CHECK(static_cast<PartId>(send_sets.size()) == nparts);
  BNSGCN_CHECK(static_cast<PartId>(recv_halo.size()) == nparts);
  BNSGCN_CHECK(send_sets[static_cast<std::size_t>(part_id)].empty());
  BNSGCN_CHECK(recv_halo[static_cast<std::size_t>(part_id)].empty());
  // Every halo node appears in exactly one recv list, grouped by owner.
  std::size_t total = 0;
  for (PartId j = 0; j < nparts; ++j) {
    for (const NodeId h : recv_halo[static_cast<std::size_t>(j)]) {
      BNSGCN_CHECK(h >= 0 && h < n_halo());
      BNSGCN_CHECK(halo_owner[static_cast<std::size_t>(h)] == j);
      ++total;
    }
  }
  BNSGCN_CHECK(total == halo_global.size());
  if constexpr (kCheckedBuild) {
    // Send sets hold inner-local row ids, strictly increasing: they are
    // emitted in the peer's sorted halo_global order and the global→local
    // map is monotone within a part, so a regression here means the
    // exchange would slab rows in the wrong order.
    for (PartId j = 0; j < nparts; ++j) {
      const auto& s = send_sets[static_cast<std::size_t>(j)];
      for (std::size_t k = 0; k < s.size(); ++k) {
        BNSGCN_BOUNDS(s[k], n_inner());
        BNSGCN_REQUIRE(k == 0 || s[k - 1] < s[k],
                       "send set not strictly increasing");
      }
    }
  }
}

std::vector<LocalGraph> build_local_graphs(const Csr& g,
                                           const Partitioning& part) {
  BNSGCN_CHECK(part.num_nodes() == g.n);
  const PartId m = part.nparts;
  const auto members = part.members(); // sorted global ids per part

  // Global → inner-local id (valid only within the owner partition).
  std::vector<NodeId> inner_local(static_cast<std::size_t>(g.n), -1);
  for (PartId i = 0; i < m; ++i) {
    const auto& mem = members[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < mem.size(); ++k)
      inner_local[static_cast<std::size_t>(mem[k])] = static_cast<NodeId>(k);
  }

  std::vector<LocalGraph> out(static_cast<std::size_t>(m));
  for (PartId i = 0; i < m; ++i) {
    LocalGraph& lg = out[static_cast<std::size_t>(i)];
    lg.part_id = i;
    lg.nparts = m;
    lg.inner_global = members[static_cast<std::size_t>(i)];
    lg.send_sets.resize(static_cast<std::size_t>(m));
    lg.recv_halo.resize(static_cast<std::size_t>(m));

    const NodeId n_in = lg.n_inner();

    // Collect halo: every remote neighbor of an inner node.
    std::vector<NodeId> halo;
    for (const NodeId v : lg.inner_global) {
      for (const NodeId u : g.neighbors(v)) {
        if (part.owner[static_cast<std::size_t>(u)] != i) halo.push_back(u);
      }
    }
    std::sort(halo.begin(), halo.end());
    halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
    lg.halo_global = std::move(halo);

    lg.halo_owner.resize(lg.halo_global.size());
    for (std::size_t k = 0; k < lg.halo_global.size(); ++k) {
      const PartId owner =
          part.owner[static_cast<std::size_t>(lg.halo_global[k])];
      lg.halo_owner[k] = owner;
      lg.recv_halo[static_cast<std::size_t>(owner)].push_back(
          static_cast<NodeId>(k));
    }

    // Local adjacency: inner rows; neighbor ids remapped.
    lg.adj.n_dst = n_in;
    lg.adj.n_src = n_in + lg.n_halo();
    lg.adj.offsets.assign(static_cast<std::size_t>(n_in) + 1, 0);
    lg.inv_full_degree.resize(static_cast<std::size_t>(n_in));
    for (NodeId lv = 0; lv < n_in; ++lv) {
      const NodeId v = lg.inner_global[static_cast<std::size_t>(lv)];
      lg.adj.offsets[static_cast<std::size_t>(lv) + 1] =
          lg.adj.offsets[static_cast<std::size_t>(lv)] + g.degree(v);
      lg.inv_full_degree[static_cast<std::size_t>(lv)] =
          g.degree(v) > 0 ? 1.0f / static_cast<float>(g.degree(v)) : 0.0f;
    }
    lg.adj.nbrs.resize(static_cast<std::size_t>(lg.adj.offsets.back()));
    std::size_t cursor = 0;
    for (NodeId lv = 0; lv < n_in; ++lv) {
      const NodeId v = lg.inner_global[static_cast<std::size_t>(lv)];
      for (const NodeId u : g.neighbors(v)) {
        NodeId lu;
        if (part.owner[static_cast<std::size_t>(u)] == i) {
          lu = inner_local[static_cast<std::size_t>(u)];
        } else {
          const auto it = std::lower_bound(lg.halo_global.begin(),
                                           lg.halo_global.end(), u);
          lu = n_in + static_cast<NodeId>(it - lg.halo_global.begin());
        }
        lg.adj.nbrs[cursor++] = lu;
      }
    }
    // True for every part of a symmetric graph (CooBuilder's default; its
    // rows are sorted and de-duplicated, and the global→local map is
    // monotone within a part), false for most directed ones.
    lg.adj.inner_symmetric = nn::inner_block_is_symmetric(lg.adj);
  }

  // Send sets: our inner nodes that appear in peer j's halo. Walk each
  // partition's halo lists once (keeps both sides sorted by global id).
  for (PartId j = 0; j < m; ++j) {
    const LocalGraph& needy = out[static_cast<std::size_t>(j)];
    for (std::size_t k = 0; k < needy.halo_global.size(); ++k) {
      const PartId owner = needy.halo_owner[k];
      LocalGraph& src = out[static_cast<std::size_t>(owner)];
      src.send_sets[static_cast<std::size_t>(j)].push_back(
          inner_local[static_cast<std::size_t>(needy.halo_global[k])]);
    }
  }
  for (auto& lg : out) lg.validate();
  if constexpr (kCheckedBuild) {
    // Cross-rank boundary consistency: rank i sends peer j exactly the rows
    // peer j expects to receive from i — the two sides of every exchange
    // edge must agree on the slab length or the fold misaligns.
    for (PartId i = 0; i < m; ++i) {
      for (PartId j = 0; j < m; ++j) {
        BNSGCN_SHAPE(
            out[static_cast<std::size_t>(i)]
                    .send_sets[static_cast<std::size_t>(j)]
                    .size() ==
                out[static_cast<std::size_t>(j)]
                    .recv_halo[static_cast<std::size_t>(i)]
                    .size(),
            "send/recv boundary sets disagree between ranks");
      }
    }
  }
  return out;
}

Matrix slice_rows(const Matrix& global, std::span<const NodeId> global_ids) {
  Matrix out(static_cast<std::int64_t>(global_ids.size()), global.cols());
  const std::int64_t d = global.cols();
  for (std::size_t k = 0; k < global_ids.size(); ++k) {
    const float* s =
        global.data() + static_cast<std::int64_t>(global_ids[k]) * d;
    std::copy(s, s + d, out.data() + static_cast<std::int64_t>(k) * d);
  }
  return out;
}

std::vector<NodeId> local_rows_of(const LocalGraph& lg,
                                  std::span<const NodeId> global_nodes) {
  std::vector<NodeId> rows;
  for (const NodeId v : global_nodes) {
    const auto it = std::lower_bound(lg.inner_global.begin(),
                                     lg.inner_global.end(), v);
    if (it != lg.inner_global.end() && *it == v)
      rows.push_back(static_cast<NodeId>(it - lg.inner_global.begin()));
  }
  return rows;
}

} // namespace bnsgcn::core

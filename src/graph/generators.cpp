#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>

#include "common/alias_table.hpp"
#include "common/check.hpp"

namespace bnsgcn::gen {

Csr erdos_renyi(NodeId n, EdgeId m, Rng& rng) {
  BNSGCN_CHECK(n >= 2);
  CooBuilder b(n);
  b.reserve(static_cast<std::size_t>(m));
  for (EdgeId e = 0; e < m; ++e) {
    const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) v = (v + 1) % n;
    b.add_edge(u, v);
  }
  return b.build();
}

Csr rmat(NodeId n, EdgeId m, Rng& rng, const RmatParams& p) {
  BNSGCN_CHECK(n >= 2);
  int levels = 0;
  while ((NodeId{1} << levels) < n) ++levels;
  CooBuilder b(n);
  b.reserve(static_cast<std::size_t>(m));
  const double d = 1.0 - p.a - p.b - p.c;
  BNSGCN_CHECK_MSG(d > 0.0, "rmat quadrant probs must sum to < 1");
  for (EdgeId e = 0; e < m; ++e) {
    NodeId u = 0, v = 0;
    for (int level = 0; level < levels; ++level) {
      const double r = rng.next_double();
      const NodeId bit = NodeId{1} << (levels - 1 - level);
      if (r < p.a) {
        // top-left: no bits set
      } else if (r < p.a + p.b) {
        v |= bit;
      } else if (r < p.a + p.b + p.c) {
        u |= bit;
      } else {
        u |= bit;
        v |= bit;
      }
    }
    // Trim overflow from the power-of-two rounding by folding.
    u = static_cast<NodeId>(u % n);
    v = static_cast<NodeId>(v % n);
    if (u != v) b.add_edge(u, v);
  }
  return b.build();
}

PlantedPartition planted_partition(const PlantedPartitionParams& params,
                                   Rng& rng) {
  BNSGCN_CHECK(params.n >= params.communities && params.communities >= 1);
  BNSGCN_CHECK(params.p_intra >= 0.0 && params.p_intra <= 1.0);

  PlantedPartition out;
  out.community.resize(static_cast<std::size_t>(params.n));
  // Contiguous equal-size communities; the partitioners never see these
  // labels, so contiguity costs no generality.
  std::vector<std::vector<NodeId>> members(
      static_cast<std::size_t>(params.communities));
  for (NodeId v = 0; v < params.n; ++v) {
    const int c = static_cast<int>(
        (static_cast<std::int64_t>(v) * params.communities) / params.n);
    out.community[static_cast<std::size_t>(v)] = c;
    members[static_cast<std::size_t>(c)].push_back(v);
  }

  // Power-law node weights: Pareto(shape=skew) gives the heavy degree tail.
  std::vector<std::vector<double>> weights(members.size());
  for (std::size_t c = 0; c < members.size(); ++c) {
    weights[c].resize(members[c].size());
    for (auto& w : weights[c]) {
      const double u = std::max(rng.next_double(), 1e-12);
      w = std::pow(u, -1.0 / params.skew);
    }
  }
  std::vector<AliasTable> samplers;
  samplers.reserve(members.size());
  for (const auto& w : weights) samplers.emplace_back(w);

  CooBuilder b(params.n);
  b.reserve(static_cast<std::size_t>(params.m));
  const int k = params.communities;
  for (EdgeId e = 0; e < params.m; ++e) {
    const auto cu =
        static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(k)));
    std::size_t cv = cu;
    if (k > 1 && !rng.next_bool(params.p_intra)) {
      cv = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(k - 1)));
      if (cv >= cu) ++cv;
    }
    const NodeId u = members[cu][static_cast<std::size_t>(
        samplers[cu].sample(rng))];
    const NodeId v = members[cv][static_cast<std::size_t>(
        samplers[cv].sample(rng))];
    if (u != v) b.add_edge(u, v);
  }
  out.graph = b.build();
  return out;
}

Csr ring(NodeId n) {
  BNSGCN_CHECK(n >= 3);
  CooBuilder b(n);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

Csr star(NodeId n) {
  BNSGCN_CHECK(n >= 2);
  CooBuilder b(n);
  for (NodeId v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

Csr grid(NodeId rows, NodeId cols) {
  BNSGCN_CHECK(rows >= 1 && cols >= 1);
  CooBuilder b(rows * cols);
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return b.build();
}

} // namespace bnsgcn::gen

#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace bnsgcn {

/// Compressed sparse row adjacency. Undirected graphs are stored as two
/// directed arcs. Neighbor lists are sorted and de-duplicated by the builder.
struct Csr {
  NodeId n = 0;
  std::vector<EdgeId> offsets; // size n+1
  std::vector<NodeId> nbrs;    // size offsets[n]

  [[nodiscard]] EdgeId num_arcs() const {
    return offsets.empty() ? 0 : offsets.back();
  }

  [[nodiscard]] NodeId degree(NodeId v) const {
    return static_cast<NodeId>(offsets[static_cast<std::size_t>(v) + 1] -
                               offsets[static_cast<std::size_t>(v)]);
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    return {nbrs.data() + offsets[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(degree(v))};
  }

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  [[nodiscard]] double average_degree() const {
    return n == 0 ? 0.0
                  : static_cast<double>(num_arcs()) / static_cast<double>(n);
  }

  /// Structural invariants: sorted unique neighbor lists, ids in range,
  /// monotone offsets. Used by tests and by the builder in debug paths.
  void validate() const;
};

/// Edge-list accumulator that finalizes into Csr. Duplicate edges and
/// (optionally) self loops are removed; the graph can be symmetrised.
class CooBuilder {
 public:
  explicit CooBuilder(NodeId n) : n_(n) { BNSGCN_CHECK(n >= 0); }

  void add_edge(NodeId u, NodeId v);
  void reserve(std::size_t edges) { edges_.reserve(edges); }

  [[nodiscard]] NodeId num_nodes() const { return n_; }

  struct Options {
    bool symmetrize = true;   // add the reverse arc of every edge
    bool drop_self_loops = true;
  };

  /// Sort + dedup + build. The builder is left empty afterwards.
  [[nodiscard]] Csr build(const Options& opts);
  [[nodiscard]] Csr build() { return build(Options{}); }

 private:
  NodeId n_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

/// Induced subgraph over `nodes` (global ids, any order). Returns the local
/// CSR plus the local→global map implied by `nodes`'s ordering; `global_to
/// _local` gives the inverse (-1 for nodes outside the set).
struct InducedSubgraph {
  Csr adj;
  std::vector<NodeId> local_to_global;
};
[[nodiscard]] InducedSubgraph induced_subgraph(const Csr& g,
                                               std::span<const NodeId> nodes);

} // namespace bnsgcn

#pragma once

#include <cstdint>

#include "common/fields.hpp"
#include "common/types.hpp"
#include "graph/csr.hpp"
#include "partition/partitioning.hpp"

namespace bnsgcn::api {

/// How to partition the graph for partition-parallel methods. Every field
/// is part of the partition cache key: two specs that differ anywhere are
/// cached (and stored on disk) independently.
struct PartitionSpec {
  enum class Kind { kMetis, kRandom, kHash, kBfs } kind = Kind::kMetis;
  PartId nparts = 1;
  /// Seeds the partitioner's randomness (METIS-like matching/refinement,
  /// random assignment, BFS seed placement). kHash ignores it — and the
  /// partition cache canonicalizes it away for kHash, so hash specs that
  /// differ only in seed share one cache entry.
  std::uint64_t seed = 1;

  friend bool operator==(const PartitionSpec&,
                         const PartitionSpec&) = default;
};

constexpr auto enum_names(PartitionSpec::Kind) {
  using enum PartitionSpec::Kind;
  return EnumNames<PartitionSpec::Kind, 4>{
      "partition kind",
      {{kMetis, "metis"}, {kRandom, "random"}, {kHash, "hash"}, {kBfs, "bfs"}}};
}

inline constexpr auto kPartitionSpecFields =
    std::tuple{field("kind", &PartitionSpec::kind),
               field("nparts", &PartitionSpec::nparts),
               field("seed", &PartitionSpec::seed)};

/// Materialize a partitioning per the spec (always computes; the cached
/// path is api::cached_partition in api/partition_cache.hpp).
[[nodiscard]] Partitioning make_partition(const Csr& graph,
                                          const PartitionSpec& spec);

} // namespace bnsgcn::api

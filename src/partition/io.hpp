#pragma once

#include <string>

#include "partition/partitioning.hpp"

namespace bnsgcn {

/// Binary serialization for partitionings. Partitioning is the paper's
/// one-time preprocessing artifact (Algorithm 1 partitions once, then
/// trains many epochs; Table 12 amortizes the cost), so it is the natural
/// unit to persist and reuse across processes — the partition cache's
/// on-disk store is built on these two functions.
///
/// Format: little-endian magic/version header, then nparts and the raw
/// owner array. Round-trips bit-exactly; not portable
/// across endianness (local caching only).

void save_partitioning(const Partitioning& p, const std::string& path);

/// Loads and validates (every owner in range, every partition non-empty);
/// throws CheckError on missing/truncated/corrupt files.
[[nodiscard]] Partitioning load_partitioning(const std::string& path);

} // namespace bnsgcn

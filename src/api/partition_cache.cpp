#include "api/partition_cache.hpp"

#include <cstdio>
#include <filesystem>

#include "common/check.hpp"
#include "partition/io.hpp"

namespace bnsgcn::api {

PartitionCache::PartitionCache(PartitionCacheConfig cfg)
    : cfg_(std::move(cfg)) {
  BNSGCN_CHECK_MSG(cfg_.capacity >= 1, "partition cache needs capacity >= 1");
}

std::string PartitionCache::key_string(const GraphFingerprint& fp,
                                       const PartitionSpec& spec) {
  const std::uint64_t seed =
      spec.kind == PartitionSpec::Kind::kHash ? 0 : spec.seed;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "-v%u-%s-%d-%llu", kPartitionerVersion,
                enum_names(spec.kind).name(spec.kind), spec.nparts,
                static_cast<unsigned long long>(seed));
  return fp.hex() + buf;
}

std::string PartitionCache::disk_path(const std::string& key) const {
  return cfg_.disk_dir + "/" + key + ".part";
}

bool PartitionCache::insert(const std::string& key,
                            std::shared_ptr<const Partitioning> part) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Racing duplicate of the same miss: both producers hold bit-identical
    // values, so replace in place and refresh — never emplace a second
    // node for the key (that would orphan the first and let its eventual
    // eviction erase the live index entry).
    it->second->second = std::move(part);
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  lru_.emplace_front(key, std::move(part));
  index_[key] = lru_.begin();
  if (lru_.size() > cfg_.capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    return true;
  }
  return false;
}

std::shared_ptr<const Partitioning> PartitionCache::get(
    const Csr& graph, const PartitionSpec& spec, PartitionCacheStats* delta) {
  PartitionCacheStats local; // exactly this lookup's outcome
  const auto done = [&](std::shared_ptr<const Partitioning> part) {
    if (delta != nullptr) *delta = local;
    return part;
  };
  if (!cfg_.enabled) {
    auto part =
        std::make_shared<const Partitioning>(make_partition(graph, spec));
    local.misses = 1;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return done(std::move(part));
  }
  const std::string key = key_string(fingerprint(graph), spec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      local.hits = 1;
      lru_.splice(lru_.begin(), lru_, it->second); // refresh LRU position
      return done(it->second->second);
    }
  }
  // Disk probe and (on miss) the partitioner run happen outside the lock:
  // both are slow, and concurrent getters of *different* keys should not
  // serialize. A racing duplicate compute of the same key is harmless —
  // both producers store bit-identical values and insert() dedups.
  if (!cfg_.disk_dir.empty()) {
    const std::string path = disk_path(key);
    if (std::filesystem::exists(path)) {
      try {
        auto part =
            std::make_shared<const Partitioning>(load_partitioning(path));
        // A fingerprint collision or a hand-edited file could still
        // deliver a partitioning of the wrong shape; fall through to a
        // fresh compute rather than train on it.
        if (part->nparts == spec.nparts &&
            part->num_nodes() == graph.n) {
          local.disk_hits = 1;
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.disk_hits;
          local.evictions = insert(key, part) ? 1 : 0;
          return done(std::move(part));
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "partition cache: ignoring unreadable %s (%s)\n",
                     path.c_str(), e.what());
      }
    }
  }
  auto part = std::make_shared<const Partitioning>(make_partition(graph, spec));
  if (!cfg_.disk_dir.empty()) {
    // Best-effort: a read-only store must not fail the run it is
    // accelerating.
    try {
      std::filesystem::create_directories(cfg_.disk_dir);
      save_partitioning(*part, disk_path(key));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "partition cache: cannot persist to %s (%s)\n",
                   cfg_.disk_dir.c_str(), e.what());
    }
  }
  local.misses = 1;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  local.evictions = insert(key, part) ? 1 : 0;
  return done(std::move(part));
}

PartitionCacheStats PartitionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PartitionCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_ = {};
}

void PartitionCache::reconfigure(PartitionCacheConfig cfg) {
  BNSGCN_CHECK_MSG(cfg.capacity >= 1, "partition cache needs capacity >= 1");
  std::lock_guard<std::mutex> lock(mu_);
  cfg_ = std::move(cfg);
  lru_.clear();
  index_.clear();
  stats_ = {};
}

namespace {

PartitionCache& mutable_global_cache() {
  static PartitionCache cache{PartitionCacheConfig{}};
  return cache;
}

} // namespace

PartitionCache& partition_cache() { return mutable_global_cache(); }

void configure_partition_cache(PartitionCacheConfig cfg) {
  mutable_global_cache().reconfigure(std::move(cfg));
}

std::shared_ptr<const Partitioning> cached_partition(
    const Csr& graph, const PartitionSpec& spec) {
  return partition_cache().get(graph, spec);
}

} // namespace bnsgcn::api

#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace bnsgcn {

namespace {

/// splitmix64 — used for seeding xoshiro state from a single word.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // xoshiro must not start at the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  BNSGCN_CHECK(n > 0);
  // Lemire's nearly-divisionless bounded sampling with rejection.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 1e-300);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  BNSGCN_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

std::vector<NodeId> Rng::sample_without_replacement(NodeId n, NodeId k) {
  BNSGCN_CHECK(k >= 0 && k <= n);
  // Floyd's algorithm would need a hash set; for the sizes used here a
  // partial Fisher-Yates over an index vector is simpler and O(n).
  std::vector<NodeId> idx(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (NodeId i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        next_below(static_cast<std::uint64_t>(n - i)) + i);
    std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
  }
  idx.resize(static_cast<std::size_t>(k));
  std::sort(idx.begin(), idx.end());
  return idx;
}

Rng Rng::split(std::uint64_t stream_id) const {
  // Mix the current state with the stream id; streams are independent for
  // practical purposes (distinct splitmix64 seeds).
  std::uint64_t mixed = s_[0] ^ (stream_id * 0xD1342543DE82EF95ULL + 0x632BE59BD9B4E019ULL);
  return Rng(mixed);
}

} // namespace bnsgcn

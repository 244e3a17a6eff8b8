#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace bnsgcn {

/// xoshiro256** — fast, high-quality 64-bit PRNG.
///
/// Used everywhere instead of <random> engines so that results are
/// reproducible across standard libraries (libstdc++ / libc++ disagree on
/// distribution implementations). All distribution helpers below are
/// implemented from first principles for the same reason.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value. Defined here, with next_float, so that
  /// per-element loops (dropout draws one value per element) inline it.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform float64 in [0, 1).
  double next_double();

  /// Uniform float32 in [0, 1): the top 24 bits of next_u64, times 2^-24.
  float next_float() {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p);

  /// Standard normal via Box-Muller (cached second value).
  double next_gaussian();

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct values from [0, n) (k <= n). Returns sorted ids.
  std::vector<NodeId> sample_without_replacement(NodeId n, NodeId k);

  /// Derive an independent stream (e.g. one per rank) deterministically.
  Rng split(std::uint64_t stream_id) const;

 private:
  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

} // namespace bnsgcn

#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

// Private to the bit-exact AVX-512F kernel files (tensor/gemm_avx512.cpp,
// nn/aggregate_avx512.cpp) and the functions that dispatch to them
// (tensor/ops.cpp, nn/layer.cpp): the run-time ISA check and the pieces
// every vector kernel shares (docs/ARCHITECTURE.md §6, "ISA dispatch").
namespace bnsgcn::simd {

/// Whether this host runs AVX-512F, read once per process: every
/// dispatcher asks here, so a process never mixes the two kernel sets.
/// Either set gives the same bits.
inline bool host_has_avx512f() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return yes;
}

/// Load/store masks of one column tile of V vectors: mask q covers the
/// tile's columns [16q, 16q + 16) that exist, for a tile of `width`
/// columns. Masked-off lanes are neither read nor written, so no access
/// runs past a row's end.
template <int V>
struct ColMasks {
  explicit ColMasks(std::int64_t width) {
    for (int q = 0; q < V; ++q) {
      const auto live = std::clamp<std::int64_t>(width - 16 * q, 0, 16);
      m[q] = static_cast<__mmask16>((1u << live) - 1u);
    }
  }
  __mmask16 m[V] = {};
};

/// x * y, rounded; never contracted into an FMA. Under GCC's default
/// -ffp-contract=fast a vector add of a vector product — and a plain
/// `c += a * b` in a target("avx512f") function — compiles to vfmadd,
/// which rounds once where the scalar kernels round twice; this
/// rounding-mode builtin is not contracted, so no build flag is needed.
/// The masked form is used because the unmasked _mm512_mul_round_ps reads
/// an undefined source register that GCC 12 flags as uninitialized.
[[gnu::target("avx512f")]] inline __m512 mul(__m512 x, __m512 y) {
  return _mm512_maskz_mul_round_ps(0xFFFF, x, y, _MM_FROUND_CUR_DIRECTION);
}

} // namespace bnsgcn::simd

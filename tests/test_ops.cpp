#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "matrix_helpers.hpp"
#include "nn/aggregate_kernels.hpp"
#include "nn/gat_layer.hpp"
#include "nn/layer.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"

namespace bnsgcn {
namespace {

TEST(Ops, GemmNnSmall) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c(2, 2);
  ops::gemm_nn(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, GemmNnBeta) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{2, 3}, {4, 5}};
  Matrix c{{1, 1}, {1, 1}};
  ops::gemm_nn(a, b, c, 2.0f);
  EXPECT_FLOAT_EQ(c.at(0, 0), 4.0f); // 2*1 + 2
  EXPECT_FLOAT_EQ(c.at(1, 1), 7.0f); // 2*1 + 5
}

TEST(Ops, GemmNnRowsBitIdenticalToFullGemmForAnyChunking) {
  // The chunked-stream F1 relies on gemm_nn_rows producing the exact bits
  // of the fused gemm_nn for every row split (the k-accumulation order is
  // independent of row blocking). Check several chunkings, including ones
  // that straddle the 64-row m-block boundary.
  Rng rng(3);
  Matrix a(150, 33);
  Matrix b(33, 17);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix full(150, 17);
  ops::gemm_nn(a, b, full);
  for (const std::int64_t chunk : {1, 7, 64, 100, 150}) {
    Matrix c(150, 17);
    for (std::int64_t r0 = 0; r0 < 150; r0 += chunk)
      ops::gemm_nn_rows(a, b, c, r0, std::min<std::int64_t>(150, r0 + chunk));
    for (std::int64_t i = 0; i < full.size(); ++i)
      ASSERT_EQ(c.data()[i], full.data()[i]) << "chunk " << chunk;
  }
}

TEST(Ops, GemmNnRowsTouchesOnlyTheAddressedRange) {
  // Rows outside [r0, r1) must be untouched (the chunked forward writes
  // the inner prefix of a larger output), and beta applies to the range
  // only.
  Rng rng(4);
  Matrix a(10, 5), b(5, 4);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix c(10, 4);
  for (std::int64_t i = 0; i < c.size(); ++i) c.data()[i] = 9.0f;
  ops::gemm_nn_rows(a, b, c, 2, 5);
  Matrix full(10, 4);
  ops::gemm_nn(a, b, full);
  for (std::int64_t i = 0; i < 10; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      if (i >= 2 && i < 5) {
        EXPECT_EQ(c.at(i, j), full.at(i, j));
      } else {
        EXPECT_EQ(c.at(i, j), 9.0f) << "row " << i << " clobbered";
      }
    }
  }
  EXPECT_THROW(ops::gemm_nn_rows(a, b, c, 5, 2), CheckError);
  EXPECT_THROW(ops::gemm_nn_rows(a, b, c, 0, 11), CheckError);
}

TEST(Ops, AddRowBiasRowsMatchesFullOnRange) {
  Matrix x{{1, 2}, {3, 4}, {5, 6}};
  Matrix bias{{10, 20}};
  ops::add_row_bias_rows(x, bias, 1, 2);
  EXPECT_FLOAT_EQ(x.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.at(1, 0), 13.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 24.0f);
  EXPECT_FLOAT_EQ(x.at(2, 1), 6.0f);
}

TEST(Ops, GemmTnMatchesExplicitTranspose) {
  Rng rng(1);
  Matrix a(7, 3);
  Matrix b(7, 5);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix c(3, 5);
  ops::gemm_tn(a, b, c);
  // reference: c[k][n] = sum_i a[i][k] * b[i][n]
  for (std::int64_t k = 0; k < 3; ++k) {
    for (std::int64_t n = 0; n < 5; ++n) {
      float ref = 0.0f;
      for (std::int64_t i = 0; i < 7; ++i) ref += a.at(i, k) * b.at(i, n);
      EXPECT_NEAR(c.at(k, n), ref, 1e-4f);
    }
  }
}

TEST(Ops, GemmNtMatchesExplicitTranspose) {
  Rng rng(2);
  Matrix a(4, 6);
  Matrix b(3, 6);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix c(4, 3);
  ops::gemm_nt(a, b, c);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      float ref = 0.0f;
      for (std::int64_t t = 0; t < 6; ++t) ref += a.at(i, t) * b.at(j, t);
      EXPECT_NEAR(c.at(i, j), ref, 1e-4f);
    }
  }
}

TEST(Ops, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(ops::gemm_nn(a, b, c), CheckError);
}

TEST(Ops, GemmAssociativityWithIdentity) {
  Rng rng(3);
  Matrix a(5, 5);
  a.randomize_gaussian(rng, 1.0f);
  Matrix eye(5, 5);
  for (int i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  Matrix c(5, 5);
  ops::gemm_nn(a, eye, c);
  EXPECT_LT(ops::max_abs_diff(a, c), 1e-6f);
}

TEST(Ops, Axpy) {
  Matrix a{{1, 2}};
  Matrix b{{3, 4}};
  test_helpers::axpy(0.5f, b, a);
  EXPECT_FLOAT_EQ(a.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(a.at(0, 1), 4.0f);
}

TEST(Ops, AddRowBias) {
  Matrix x{{1, 1}, {2, 2}};
  Matrix b{{10, 20}};
  ops::add_row_bias_rows(x, b, 0, x.rows());
  EXPECT_FLOAT_EQ(x.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 22.0f);
}

TEST(Ops, ColSum) {
  Matrix g{{1, 2}, {3, 4}, {5, 6}};
  Matrix out(1, 2);
  ops::col_sum(g, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 12.0f);
}

TEST(Ops, ReluForwardBackward) {
  Matrix x{{-1, 2}, {3, -4}};
  Matrix mask;
  ops::relu_forward(x, mask);
  EXPECT_FLOAT_EQ(x.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(x.at(0, 1), 2.0f);
  Matrix g{{5, 5}, {5, 5}};
  ops::relu_backward(g, mask);
  EXPECT_FLOAT_EQ(g.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(g.at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 0.0f);
}

TEST(Ops, ReluOverloadsAgree) {
  // Serving runs the maskless overload on the forward training ran with
  // the masked one, so the two must give the same bytes for every input,
  // NaN included; the mask is 1 exactly where x > 0.
  using L = std::numeric_limits<float>;
  const float specials[] = {0.0f,           -0.0f,           L::infinity(),
                            -L::infinity(), L::quiet_NaN(),  -L::quiet_NaN(),
                            L::denorm_min(), -L::denorm_min(), 1e-39f,
                            -1e-39f,        L::min(),        -L::min(),
                            L::max(),       L::lowest()};
  constexpr auto kSpecials = std::size(specials);
  Rng rng(23);
  Matrix x(37, 19); // 703 elements: a tail under every vector width
  x.randomize_gaussian(rng, 1.0f);
  for (std::size_t i = 0; i < kSpecials; ++i) x.data()[i] = specials[i];
  for (std::int64_t i = static_cast<std::int64_t>(kSpecials); i < x.size();
       ++i) {
    if (rng.next_u64() % 4 == 0)
      x.data()[i] = specials[rng.next_u64() % kSpecials];
  }
  Matrix masked = x, maskless = x, mask;
  ops::relu_forward(masked, mask);
  ops::relu_forward(maskless);
  ASSERT_EQ(mask.size(), x.size());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const float v = x.data()[i];
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    ASSERT_EQ(bits(maskless.data()[i]), bits(masked.data()[i]))
        << "overloads differ on " << v << " at flat index " << i;
    ASSERT_EQ(bits(masked.data()[i]), bits(v > 0.0f ? v : 0.0f))
        << "relu(" << v << ") at flat index " << i;
    ASSERT_EQ(bits(mask.data()[i]), bits(v > 0.0f ? 1.0f : 0.0f))
        << "mask of " << v << " at flat index " << i;
  }
}

TEST(Ops, DropoutZeroRateIsIdentity) {
  Matrix x{{1, 2, 3}};
  Matrix mask;
  Rng rng(1);
  ops::dropout_forward(x, mask, 0.0f, rng);
  EXPECT_FLOAT_EQ(x.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(mask.at(0, 2), 1.0f);
}

TEST(Ops, DropoutIsUnbiased) {
  // E[dropout(x)] == x with inverted scaling.
  Rng rng(2);
  constexpr int kTrials = 20000;
  double sum = 0.0;
  for (int i = 0; i < kTrials; ++i) {
    Matrix x{{1.0f}};
    Matrix mask;
    ops::dropout_forward(x, mask, 0.4f, rng);
    sum += x.at(0, 0);
  }
  EXPECT_NEAR(sum / kTrials, 1.0, 0.02);
}

/// dropout_forward as it was before its draws ran ahead in chunks: one
/// next_float() per element, compared with p as a float, and a branch.
/// The reference the chunked, branch-free version is pinned to.
void dropout_per_element_branch(Matrix& x, Matrix& mask, float p, Rng& rng) {
  mask.resize(x.rows(), x.cols());
  if (p == 0.0f) {
    mask.fill(1.0f);
    return;
  }
  const float keep_scale = 1.0f / (1.0f - p);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    if (rng.next_float() < p) {
      x.data()[i] = 0.0f;
      mask.data()[i] = 0.0f;
    } else {
      x.data()[i] *= keep_scale;
      mask.data()[i] = keep_scale;
    }
  }
}

/// Runs dropout_forward and the per-element reference on copies of x and
/// of rng; output bits, mask bits and the generators' next draws must
/// agree.
void expect_dropout_matches_reference(const Matrix& x, float p,
                                      const Rng& rng) {
  SCOPED_TRACE(::testing::Message() << "p = " << p << " (p * 2^24 = "
                                    << static_cast<double>(p) * 0x1p24
                                    << "), " << x.size() << " elements");
  Matrix got = x, want = x, got_mask, want_mask;
  Rng got_rng = rng, want_rng = rng;
  ops::dropout_forward(got, got_mask, p, got_rng);
  dropout_per_element_branch(want, want_mask, p, want_rng);
  const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got_mask.size(), want_mask.size());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits(got.data()[i]), bits(want.data()[i]))
        << "output of " << x.data()[i] << " at flat index " << i;
    ASSERT_EQ(bits(got_mask.data()[i]), bits(want_mask.data()[i]))
        << "mask at flat index " << i;
  }
  for (int k = 0; k < 4; ++k)
    ASSERT_EQ(got_rng.next_u64(), want_rng.next_u64())
        << "generator state after the call, draw " << k;
}

/// x of the given shape: Gaussian values, the specials below first, and
/// about one element in four replaced by a special.
Matrix dropout_input(std::int64_t rows, std::int64_t cols, Rng& rng) {
  using L = std::numeric_limits<float>;
  const float specials[] = {0.0f,           -0.0f,           L::infinity(),
                            -L::infinity(), L::quiet_NaN(),  -L::quiet_NaN(),
                            L::denorm_min(), -L::denorm_min(), 1e-39f,
                            -1e-39f,        L::max(),        L::lowest(),
                            3e38f,          -3e38f}; // the last four overflow
  constexpr auto kSpecials = std::size(specials);
  Matrix x(rows, cols);
  x.randomize_gaussian(rng, 1.0f);
  for (std::size_t i = 0; i < kSpecials && i < static_cast<std::size_t>(
                                                  x.size());
       ++i)
    x.data()[i] = specials[i];
  for (std::int64_t i = static_cast<std::int64_t>(kSpecials); i < x.size();
       ++i) {
    if (rng.next_u64() % 4 == 0)
      x.data()[i] = specials[rng.next_u64() % kSpecials];
  }
  return x;
}

TEST(Ops, DropoutMatchesPerElementReference) {
  // 0.1, 0.3 and 0.9 scale to non-integers under 2^24, 0.5 and 0.375 to
  // integers; 2^-24 and 1 - 2^-24 are the extreme integer thresholds 1
  // and 2^24 - 1, and 3·2^-26 the threshold 0.75. Shapes leave tails under
  // the 256-element draw chunk and under every vector width; 8000 × 64 is
  // a SAGE hidden layer.
  const float rates[] = {0.0f,   0.1f,  0.3f,           0.5f,
                         0.9f,   0.375f, 0x1p-24f,      1.0f - 0x1p-24f,
                         0x3p-26f};
  const std::pair<std::int64_t, std::int64_t> shapes[] = {
      {1, 1}, {1, 14}, {37, 19}, {16, 16}, {129, 41}, {8000, 64}};
  Rng data_rng(31);
  for (const auto& [rows, cols] : shapes) {
    const Matrix x = dropout_input(rows, cols, data_rng);
    for (const float p : rates)
      expect_dropout_matches_reference(x, p, Rng(data_rng.next_u64()));
  }
}

TEST(Ops, DropoutThresholdIsExactAtTheDrawItself) {
  // A random rate almost never lands on a draw, so an off-by-one in the
  // integer threshold would pass the test above. Here the rate is built
  // from one element's own draw k = next_u64() >> 40: p = k·2^-24 must keep
  // that element (k < k is false) and p = (k + 1/2)·2^-24 must drop it.
  Rng data_rng(32);
  const Matrix x = dropout_input(50, 30, data_rng);
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Rng rng(seed);
    Rng peek = rng;
    const auto at = static_cast<std::int64_t>(seed * 37 % x.size());
    std::uint64_t k = 0;
    for (std::int64_t i = 0; i <= at; ++i) k = peek.next_u64() >> 40;
    if (k == 0 || k >= (1u << 23)) continue; // k + 1/2 needs 24 bits
    const float on = static_cast<float>(k) * 0x1p-24f;
    const float between = (static_cast<float>(k) + 0.5f) * 0x1p-24f;
    expect_dropout_matches_reference(x, on, rng);
    expect_dropout_matches_reference(x, between, rng);
    Matrix kept = x, dropped = x, mask;
    Rng r1 = rng, r2 = rng;
    ops::dropout_forward(kept, mask, on, r1);
    EXPECT_NE(mask.data()[at], 0.0f) << "seed " << seed;
    ops::dropout_forward(dropped, mask, between, r2);
    EXPECT_EQ(mask.data()[at], 0.0f) << "seed " << seed;
    ++cases;
  }
  EXPECT_GE(cases, 10);
}

TEST(Ops, GatherRows) {
  Matrix src{{1, 1}, {2, 2}, {3, 3}};
  std::vector<NodeId> idx{2, 0};
  Matrix out;
  ops::gather_rows(src, idx, out);
  EXPECT_EQ(out.rows(), 2);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 1.0f);
}

TEST(Ops, GatherRowsOfRandomMatrix) {
  Rng rng(4);
  Matrix src(10, 5);
  src.randomize_gaussian(rng, 1.0f);
  std::vector<NodeId> idx{0, 3, 7, 9};
  Matrix picked;
  ops::gather_rows(src, idx, picked);
  ASSERT_EQ(picked.rows(), 4);
  for (std::size_t k = 0; k < idx.size(); ++k)
    for (std::int64_t c = 0; c < 5; ++c)
      EXPECT_EQ(picked.at(static_cast<std::int64_t>(k), c),
                src.at(idx[k], c));
}

TEST(Ops, MaxAbsDiffSeesNaN) {
  // A NaN on one side of a pair is a difference, not a match; NaN on both
  // sides is the same value.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Matrix a{{1, nan, 3}};
  Matrix b{{1, 2, 3}};
  EXPECT_EQ(ops::max_abs_diff(a, b), inf);
  EXPECT_EQ(ops::max_abs_diff(b, a), inf);
  EXPECT_EQ(ops::max_abs_diff(a, a), 0.0f);
  EXPECT_EQ(ops::max_abs_diff(b, b), 0.0f);
}

TEST(Ops, FrobeniusNorm) {
  Matrix a{{3, 4}};
  EXPECT_NEAR(test_helpers::frobenius_norm_sq(a), 25.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Threads-axis parity matrix: every pooled kernel must be bit-identical to
// its K=1 scalar path for every thread count. The shapes are deliberately
// ragged — row/column counts that leave a tail block smaller than the
// 64-wide parallel grain — so the block decomposition's edge cases are in
// play, and K=7 exceeds this machine's cores, so lanes genuinely interleave.
// Comparison is through bit_cast: even a -0.0f vs +0.0f drift fails.
// ---------------------------------------------------------------------------

constexpr int kParityThreads[] = {1, 2, 3, 7};

void expect_bits_equal(const Matrix& got, const Matrix& want, int threads,
                       const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.data()[i]),
              std::bit_cast<std::uint32_t>(want.data()[i]))
        << what << " diverges at flat index " << i << " with " << threads
        << " threads";
  }
}

/// Runs `fill` at K=1 and at each K in kParityThreads, comparing outputs
/// bitwise. `fill` must write its result into the passed matrix.
template <typename Fill>
void check_threads_parity(const char* what, Fill&& fill) {
  Matrix ref;
  common::set_ops_threads(1);
  fill(ref);
  for (const int k : kParityThreads) {
    Matrix got;
    common::set_ops_threads(k);
    fill(got);
    common::set_ops_threads(1);
    expect_bits_equal(got, ref, k, what);
  }
}

TEST(OpsThreadsParity, GemmNn) {
  Rng rng(11);
  Matrix a(201, 33), b(33, 17);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  // A few exact zeros so the av==0 skip is exercised under threading.
  a.data()[5] = 0.0f;
  a.data()[700] = -0.0f;
  check_threads_parity("gemm_nn", [&](Matrix& c) {
    c.resize(201, 17);
    ops::gemm_nn(a, b, c);
  });
  check_threads_parity("gemm_nn beta", [&](Matrix& c) {
    c.resize(201, 17);
    c.fill(0.5f);
    ops::gemm_nn(a, b, c, 2.0f);
  });
}

TEST(OpsThreadsParity, GemmNnRowsRangeSemantics) {
  // Under threading, gemm_nn_rows must still write rows [r0, r1) only and
  // produce the bits of the fused full-shape call on that range.
  Rng rng(12);
  Matrix a(180, 29), b(29, 13);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix full(180, 13);
  common::set_ops_threads(1);
  ops::gemm_nn(a, b, full);
  for (const int k : kParityThreads) {
    common::set_ops_threads(k);
    Matrix c(180, 13);
    for (std::int64_t i = 0; i < c.size(); ++i) c.data()[i] = 9.0f;
    ops::gemm_nn_rows(a, b, c, 30, 170);
    common::set_ops_threads(1);
    for (std::int64_t i = 0; i < 180; ++i) {
      for (std::int64_t j = 0; j < 13; ++j) {
        if (i >= 30 && i < 170) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(c.at(i, j)),
                    std::bit_cast<std::uint32_t>(full.at(i, j)))
              << "row " << i << " threads " << k;
        } else {
          ASSERT_EQ(c.at(i, j), 9.0f)
              << "row " << i << " clobbered with " << k << " threads";
        }
      }
    }
  }
}

TEST(OpsThreadsParity, GemmNnRowsChunkingTimesThreads) {
  // The chunked-stream F1 calls gemm_nn_rows with chunks as small as one
  // row; chunking and threading must compose bit-exactly.
  Rng rng(13);
  Matrix a(150, 33), b(33, 17);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix full(150, 17);
  common::set_ops_threads(1);
  ops::gemm_nn(a, b, full);
  for (const int k : kParityThreads) {
    for (const std::int64_t chunk : {1, 7, 64, 150}) {
      common::set_ops_threads(k);
      Matrix c(150, 17);
      for (std::int64_t r0 = 0; r0 < 150; r0 += chunk)
        ops::gemm_nn_rows(a, b, c, r0, std::min<std::int64_t>(150, r0 + chunk));
      common::set_ops_threads(1);
      expect_bits_equal(c, full, k, "gemm_nn_rows chunked");
    }
  }
}

TEST(OpsThreadsParity, GemmTn) {
  // k=150 splits the kk axis into 64+64+22; the i loop stays outermost in
  // every lane so each element's ascending-i accumulation (including the
  // av==0 skips) is the scalar kernel's.
  Rng rng(14);
  Matrix a(90, 150), b(90, 40);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  a.data()[40] = 0.0f;
  check_threads_parity("gemm_tn", [&](Matrix& c) {
    c.resize(150, 40);
    ops::gemm_tn(a, b, c);
  });
  check_threads_parity("gemm_tn beta=1 accumulate", [&](Matrix& c) {
    c.resize(150, 40);
    c.fill(0.25f);
    ops::gemm_tn(a, b, c, 1.0f);
  });
}

TEST(OpsThreadsParity, GemmNt) {
  Rng rng(15);
  Matrix a(201, 23), b(31, 23);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  check_threads_parity("gemm_nt", [&](Matrix& c) {
    c.resize(201, 31);
    ops::gemm_nt(a, b, c);
  });
}

TEST(OpsThreadsParity, GatherRows) {
  Rng rng(16);
  Matrix src(50, 100);
  src.randomize_gaussian(rng, 1.0f);
  std::vector<NodeId> idx;
  for (int i = 0; i < 333; ++i)
    idx.push_back(static_cast<NodeId>((i * 17 + 3) % 50)); // repeats
  check_threads_parity("gather_rows", [&](Matrix& out) {
    ops::gather_rows(src, idx, out);
  });
}

// ---------------------------------------------------------------------------
// ISA dispatch: the public GEMMs run the AVX-512F kernels on hosts that have
// them (tensor/gemm_kernels.hpp), and must give the scalar kernels' bits.
// Non-NaN outputs must be bit-equal; NaN must appear exactly where the
// scalar kernel has NaN (x86 propagates the first operand's NaN payload,
// and the two kernels may order a NaN pair's operands differently).
// On a host without AVX-512F both sides run the scalar kernel.
// ---------------------------------------------------------------------------

void expect_same_bits_or_both_nan(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::int64_t i = 0; i < got.size(); ++i) {
    const float g = got.data()[i], w = want.data()[i];
    if (std::isnan(w)) {
      ASSERT_TRUE(std::isnan(g)) << "at flat index " << i;
    } else {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(g), std::bit_cast<std::uint32_t>(w))
          << "at flat index " << i << ": " << g << " vs " << w;
    }
  }
}

/// The value mixes of the dispatch grid.
enum class Mix { kDense, kZeros, kSpecial };

/// Gaussian entries, then:
///   kZeros   — about half become +0.0f or -0.0f; row 0 is all -0.0f,
///              row 1 all 1.0f, and column 0 below row 0 all +0.0f. As A,
///              row 0 (gemm_nn) and column 0 (gemm_tn) are all-skipped
///              terms; as gemm_nt's A and B, row 0 against row 1 is a dot
///              product of -0.0f terms, which is +0.0f only because the sum
///              starts from 0.0f.
///   kSpecial — one NaN, one +Inf, one -Inf and one -0.0f, so most outputs
///              stay finite and each special shows in its own row/column.
void fill(Matrix& m, Rng& rng, Mix mix) {
  m.randomize_gaussian(rng, 1.0f);
  const auto pick = [&] {
    return m.data() + rng.next_u64() % static_cast<std::uint64_t>(m.size());
  };
  switch (mix) {
    case Mix::kDense:
      return;
    case Mix::kSpecial:
      *pick() = std::numeric_limits<float>::quiet_NaN();
      *pick() = std::numeric_limits<float>::infinity();
      *pick() = -std::numeric_limits<float>::infinity();
      *pick() = -0.0f;
      return;
    case Mix::kZeros:
      for (std::int64_t i = 0; i < m.size(); ++i) {
        if (rng.next_u64() % 2 == 0)
          m.data()[i] = rng.next_u64() % 2 == 0 ? 0.0f : -0.0f;
      }
      for (std::int64_t j = 0; j < m.cols(); ++j) {
        m.at(0, j) = -0.0f;
        if (m.rows() > 1) m.at(1, j) = 1.0f;
      }
      for (std::int64_t r = 1; r < m.rows(); ++r) m.at(r, 0) = 0.0f;
      return;
  }
}

/// The output's starting contents: -0.0f everywhere for kZeros (so a zero
/// term that is not skipped turns it into +0.0f), else like fill().
Matrix start_c(std::int64_t rows, std::int64_t cols, Rng& rng, Mix mix) {
  Matrix c(rows, cols);
  if (mix == Mix::kZeros) {
    c.fill(-0.0f);
  } else {
    fill(c, rng, mix);
  }
  return c;
}

/// Operand shapes of one dispatch case.
struct Shapes {
  std::int64_t a_rows, a_cols, b_rows, b_cols, c_rows, c_cols;
};

/// A block embedded in a larger matrix: rows [1, rows + 1) of a matrix
/// with cols + 5 columns, and with at least a 64-column tile's worth of
/// rows after the block, whose other elements hold a NaN sentinel. The
/// block's view has a row stride wider than its columns and is a row range
/// of a taller matrix. A kernel that reads past a row's end sees the
/// sentinel; one that writes there changes it.
struct Embedded {
  static constexpr std::uint32_t kSentinel = 0x7fc0dead;
  std::int64_t rows, cols;
  Matrix store;

  explicit Embedded(const Matrix& m)
      : rows(m.rows()), cols(m.cols()),
        store(m.rows() + 2 + 64 / (m.cols() + 5), m.cols() + 5,
              std::bit_cast<float>(kSentinel)) {
    for (std::int64_t r = 0; r < rows; ++r)
      std::copy(m.row(r).begin(), m.row(r).end(), store.row(r + 1).begin());
  }
  [[nodiscard]] MatrixView view() {
    return {store.data() + store.cols(), rows, cols, store.cols()};
  }
  /// The block's contents; fails the test where the rest lost the
  /// sentinel.
  [[nodiscard]] Matrix block() const {
    Matrix m(rows, cols);
    for (std::int64_t r = 0; r < store.rows(); ++r) {
      for (std::int64_t j = 0; j < store.cols(); ++j) {
        const float x = store.at(r, j);
        if (r >= 1 && r <= rows && j < cols) {
          m.at(r - 1, j) = x;
        } else {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(x), kSentinel)
              << "wrote outside the view at (" << r << ", " << j << ")";
        }
      }
    }
    return m;
  }
};

/// Runs `scalar` at one lane and `dispatched` at 1 and 3 lanes on copies of
/// one starting C, for every value mix and beta, and compares; the
/// dispatched call runs once on plain matrices and once on Embedded views
/// of A, B and C. With beta = 0 the starting C is NaN everywhere: neither
/// kernel may read it.
template <typename Scalar, typename Dispatched>
void check_dispatch(const Shapes& s, Scalar&& scalar, Dispatched&& dispatched) {
  Rng rng(static_cast<std::uint64_t>(s.a_rows * 1000003 + s.a_cols * 1009 +
                                     s.b_cols * 31 + s.c_cols));
  for (const Mix mix : {Mix::kDense, Mix::kZeros, Mix::kSpecial}) {
    Matrix a(s.a_rows, s.a_cols), b(s.b_rows, s.b_cols);
    fill(a, rng, mix);
    fill(b, rng, mix);
    const Matrix c0 = start_c(s.c_rows, s.c_cols, rng, mix);
    for (const float beta : {0.0f, 1.0f, 0.3f}) {
      Matrix start = c0;
      if (beta == 0.0f) start.fill(std::numeric_limits<float>::quiet_NaN());
      Matrix want = start;
      common::set_ops_threads(1);
      scalar(a, b, want, beta);
      for (const int lanes : {1, 3}) {
        for (const bool embedded : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "A " << s.a_rows << "x" << s.a_cols << ", mix "
                       << static_cast<int>(mix) << ", beta " << beta
                       << ", lanes " << lanes << ", embedded " << embedded);
          Matrix got = start;
          common::set_ops_threads(lanes);
          if (embedded) {
            Embedded ea(a), eb(b), ec(start);
            dispatched(ea.view(), eb.view(), ec.view(), beta);
            got = ec.block();
          } else {
            dispatched(a, b, got, beta);
          }
          common::set_ops_threads(1);
          expect_same_bits_or_both_nan(got, want);
        }
      }
    }
  }
}

TEST(GemmDispatch, NnMatchesScalar) {
  // (m, k, n): row tails of 1-3 under the 4-row tile and across the 64-row
  // lane blocks, column tails under the 64-column tile and its 16-wide
  // vectors, k = 1 up past the scalar kernel's 256-wide k blocks.
  struct Shape { std::int64_t m, k, n; };
  for (const Shape s : {Shape{1, 1, 1}, Shape{5, 3, 17}, Shape{67, 33, 64},
                        Shape{130, 20, 80}, Shape{9, 300, 129},
                        Shape{66, 7, 48}}) {
    check_dispatch(
        {s.m, s.k, s.k, s.n, s.m, s.n},
        [&](ConstMatrixView a, ConstMatrixView b, MatrixView c, float be) {
          ops::detail::gemm_nn_rows_scalar(a, b, c, 0, s.m, be, {});
        },
        [](ConstMatrixView a, ConstMatrixView b, MatrixView c, float be) {
          ops::gemm_nn(a, b, c, be);
        });
  }
}

TEST(GemmDispatch, NnRowsRangesMatchScalar) {
  struct Range { std::int64_t r0, r1; };
  for (const Range r : {Range{0, 0}, Range{3, 4}, Range{1, 66}, Range{5, 137},
                        Range{64, 139}}) {
    SCOPED_TRACE(::testing::Message() << "rows [" << r.r0 << ", " << r.r1 << ")");
    check_dispatch(
        {139, 21, 21, 70, 139, 70},
        [&](ConstMatrixView a, ConstMatrixView b, MatrixView c, float be) {
          ops::detail::gemm_nn_rows_scalar(a, b, c, r.r0, r.r1, be, {});
        },
        [&](ConstMatrixView a, ConstMatrixView b, MatrixView c, float be) {
          ops::gemm_nn_rows(a, b, c, r.r0, r.r1, be);
        });
  }
}

/// gemm_nn_rows through a row map: row t of A lands in C row map[t]. The
/// reference gathers the mapped rows of C, runs the scalar kernel without
/// a map, and scatters them back, so it does not share the kernels' map
/// handling. Rows the map does not name keep their bits.
TEST(GemmDispatch, NnRowMapMatchesScalar) {
  struct MapCase {
    const char* what;
    std::int64_t c_rows;
    std::vector<std::vector<NodeId>> maps; // one call per map, in order
    std::int64_t r0_skip, r1_skip;         // rows [r0_skip, m - r1_skip)
  };
  std::vector<MapCase> cases;
  {  // three peers whose rows interleave, as GAT's halo slots do
    MapCase c{"three peers", 3 * 23, {}, 0, 0};
    for (NodeId p = 0; p < 3; ++p) {
      std::vector<NodeId> map;
      for (NodeId t = 0; t < 23; ++t) map.push_back(3 * t + (t + p) % 3);
      c.maps.push_back(std::move(map));
    }
    cases.push_back(std::move(c));
  }
  {  // a permutation, over a row range that skips both ends
    MapCase c{"permutation", 70, {}, 2, 3};
    std::vector<NodeId> map(70);
    for (NodeId t = 0; t < 70; ++t)
      map[static_cast<std::size_t>(t)] = (t * 37 + 11) % 70;
    c.maps.push_back(std::move(map));
    cases.push_back(std::move(c));
  }
  {  // gaps: every other row of C, and the last ones, stay out of the map
    MapCase c{"gaps", 2 * 66 + 5, {}, 0, 0};
    std::vector<NodeId> map;
    for (NodeId t = 0; t < 66; ++t) map.push_back(2 * t + 1);
    c.maps.push_back(std::move(map));
    cases.push_back(std::move(c));
  }
  Rng rng(77);
  for (const MapCase& mc : cases) {
    for (const std::int64_t n : {std::int64_t{17}, std::int64_t{64},
                                 std::int64_t{70}}) {
      for (const Mix mix : {Mix::kDense, Mix::kZeros, Mix::kSpecial}) {
        const Matrix c0 = start_c(mc.c_rows, n, rng, mix);
        std::vector<Matrix> as;
        Matrix b(21, n);
        fill(b, rng, mix);
        for (const auto& map : mc.maps) {
          as.emplace_back(static_cast<std::int64_t>(map.size()), 21);
          fill(as.back(), rng, mix);
        }
        for (const float beta : {0.0f, 1.0f, 0.3f}) {
          SCOPED_TRACE(::testing::Message()
                       << mc.what << ", n " << n << ", mix "
                       << static_cast<int>(mix) << ", beta " << beta);
          Matrix start = c0;
          if (beta == 0.0f) {
            for (const auto& map : mc.maps)
              for (const NodeId r : map)
                std::fill(start.row(r).begin(), start.row(r).end(),
                          std::numeric_limits<float>::quiet_NaN());
          }
          Matrix want = start, scalar = start;
          common::set_ops_threads(1);
          for (std::size_t p = 0; p < mc.maps.size(); ++p) {
            const auto& map = mc.maps[p];
            const auto m = static_cast<std::int64_t>(map.size());
            const std::int64_t r0 = mc.r0_skip, r1 = m - mc.r1_skip;
            Matrix rows(m, n);
            for (std::int64_t t = r0; t < r1; ++t)
              std::copy(want.row(map[static_cast<std::size_t>(t)]).begin(),
                        want.row(map[static_cast<std::size_t>(t)]).end(),
                        rows.row(t).begin());
            ops::detail::gemm_nn_rows_scalar(as[p], b, rows, r0, r1, beta, {});
            for (std::int64_t t = r0; t < r1; ++t)
              std::copy(rows.row(t).begin(), rows.row(t).end(),
                        want.row(map[static_cast<std::size_t>(t)]).begin());
            ops::detail::gemm_nn_rows_scalar(as[p], b, scalar, r0, r1, beta,
                                             map);
          }
          expect_same_bits_or_both_nan(scalar, want);
          for (const int lanes : {1, 3}) {
            SCOPED_TRACE(::testing::Message() << "lanes " << lanes);
            Matrix got = start;
            common::set_ops_threads(lanes);
            for (std::size_t p = 0; p < mc.maps.size(); ++p) {
              const auto m = static_cast<std::int64_t>(mc.maps[p].size());
              ops::gemm_nn_rows(as[p], b, got, mc.r0_skip, m - mc.r1_skip,
                                beta, mc.maps[p]);
            }
            common::set_ops_threads(1);
            expect_same_bits_or_both_nan(got, want);
          }
        }
      }
    }
  }
}

TEST(GemmDispatch, NnRowMapIsChecked) {
  Matrix a(4, 3, 1.0f), b(3, 5, 1.0f), c(6, 5);
  const std::vector<NodeId> ok = {5, 0, 2, 3};
  ops::gemm_nn_rows(a, b, c, 0, 4, 0.0f, ok);
  for (const std::vector<NodeId>& bad :
       {std::vector<NodeId>{5, 0, 6, 3}, std::vector<NodeId>{5, -1, 2, 3},
        std::vector<NodeId>{5, 0, 2}}) {
    EXPECT_THROW(ops::gemm_nn_rows(a, b, c, 0, 4, 0.0f, bad), CheckError);
  }
  // Only the addressed rows' entries are read.
  const std::vector<NodeId> bad_outside = {5, 0, 2, 99};
  EXPECT_NO_THROW(ops::gemm_nn_rows(a, b, c, 0, 3, 0.0f, bad_outside));
  EXPECT_THROW(ops::gemm_nn_rows(a, b, c, 0, 4, 0.0f, bad_outside),
               CheckError);
}

TEST(GemmDispatch, TnMatchesScalar) {
  // (m, k, n) with C = A^T B of shape k x n: m = 300 crosses the kernel's
  // 128-row i blocks, k tails under the 4-row tile and the 64-row lanes.
  struct Shape { std::int64_t m, k, n; };
  for (const Shape s : {Shape{1, 1, 1}, Shape{3, 5, 17}, Shape{300, 67, 64},
                        Shape{150, 9, 130}, Shape{129, 130, 33},
                        Shape{2, 66, 48}}) {
    check_dispatch(
        {s.m, s.k, s.m, s.n, s.k, s.n},
        [](ConstMatrixView a, ConstMatrixView b, MatrixView c, float be) {
          ops::detail::gemm_tn_scalar(a, b, c, be);
        },
        [](ConstMatrixView a, ConstMatrixView b, MatrixView c, float be) {
          ops::gemm_tn(a, b, c, be);
        });
  }
}

TEST(GemmDispatch, NtMatchesScalar) {
  // (m, n, k) with C = A B^T of shape m x k.
  struct Shape { std::int64_t m, n, k; };
  for (const Shape s : {Shape{1, 1, 1}, Shape{5, 3, 17}, Shape{67, 64, 128},
                        Shape{130, 20, 80}, Shape{9, 33, 129},
                        Shape{66, 7, 48}}) {
    check_dispatch(
        {s.m, s.n, s.k, s.n, s.m, s.k},
        [](ConstMatrixView a, ConstMatrixView b, MatrixView c, float be) {
          ops::detail::gemm_nt_scalar(a, b, c, be);
        },
        [](ConstMatrixView a, ConstMatrixView b, MatrixView c, float be) {
          ops::gemm_nt(a, b, c, be);
        });
  }
}

TEST(GemmDispatch, DispatchedGemmsDoNotFuse) {
  // a = b = 1 + 2^-12 and c = -(1 + 2^-11): a*b rounds to exactly -c, so
  // c + a*b is +0.0f with two roundings but 2^-24 fused. Every
  // multiply-then-add step of the vector path meets these operands at
  // least once, over a 4-row tile plus a 1-row tail and a 64-column tile
  // plus a column tail; every output must be +0.0f.
  const float a = 1.0f + std::ldexp(1.0f, -12);
  const float c = -(1.0f + std::ldexp(1.0f, -11));
  ASSERT_EQ(c + a * a, 0.0f);
  ASSERT_EQ(std::fma(a, a, c), std::ldexp(1.0f, -24));
  const std::int64_t rows = 5, cols = 80;
  auto expect_all_plus_zero = [](const Matrix& out, const char* what) {
    for (std::int64_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out.data()[i]), 0u)
          << what << " fused at flat index " << i << ": " << out.data()[i];
  };
  {  // gemm_nn, beta = 1: C + a * a
    const Matrix x(rows, 1, a), w(1, cols, a);
    Matrix out(rows, cols, c);
    ops::gemm_nn(x, w, out, 1.0f);
    expect_all_plus_zero(out, "gemm_nn");
  }
  {  // gemm_tn, beta = 1: C + a * a
    const Matrix x(1, rows, a), g(1, cols, a);
    Matrix out(rows, cols, c);
    ops::gemm_tn(x, g, out, 1.0f);
    expect_all_plus_zero(out, "gemm_tn");
  }
  {  // gemm_nt's sum: (0 + c * 1) + a * a, then 0 + 0
    Matrix x(rows, 2), w(cols, 2);
    for (std::int64_t i = 0; i < rows; ++i) {
      x.at(i, 0) = c;
      x.at(i, 1) = a;
    }
    for (std::int64_t j = 0; j < cols; ++j) {
      w.at(j, 0) = 1.0f;
      w.at(j, 1) = a;
    }
    Matrix out(rows, cols);
    ops::gemm_nt(x, w, out);
    expect_all_plus_zero(out, "gemm_nt sum");
  }
}

// Random bipartite graph with a ragged feature width and optional edge
// scales — the aggregate kernels' parity fixture.
nn::BipartiteCsr random_adj(Rng& rng, NodeId n_dst, NodeId n_src,
                            bool weighted) {
  nn::BipartiteCsr adj;
  adj.n_dst = n_dst;
  adj.n_src = n_src;
  adj.offsets.push_back(0);
  for (NodeId v = 0; v < n_dst; ++v) {
    const int deg = static_cast<int>(rng.next_u64() % 9); // some zero-degree
    for (int e = 0; e < deg; ++e)
      adj.nbrs.push_back(static_cast<NodeId>(rng.next_u64() %
                                             static_cast<std::uint64_t>(n_src)));
    adj.offsets.push_back(static_cast<EdgeId>(adj.nbrs.size()));
  }
  if (weighted) {
    for (std::size_t e = 0; e < adj.nbrs.size(); ++e)
      adj.edge_scale.push_back(0.5f + rng.next_float());
  }
  adj.validate();
  return adj;
}

std::vector<float> inv_degrees(const nn::BipartiteCsr& adj) {
  std::vector<float> inv(static_cast<std::size_t>(adj.n_dst), 0.0f);
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto deg = adj.offsets[static_cast<std::size_t>(v) + 1] -
                     adj.offsets[static_cast<std::size_t>(v)];
    if (deg > 0) inv[static_cast<std::size_t>(v)] = 1.0f / static_cast<float>(deg);
  }
  return inv;
}

TEST(OpsThreadsParity, MeanAggregateFamily) {
  for (const bool weighted : {false, true}) {
    Rng rng(weighted ? 18 : 17);
    const NodeId n_dst = 170, n_src = 140, n_lo = 110;
    const std::int64_t d = 100; // column tail of 36 under the 64 grain
    const auto adj = random_adj(rng, n_dst, n_src, weighted);
    const auto inv = inv_degrees(adj);
    Matrix src(n_src, d), inner(n_lo, d), dout(n_dst, d);
    src.randomize_gaussian(rng, 1.0f);
    inner.randomize_gaussian(rng, 1.0f);
    dout.randomize_gaussian(rng, 1.0f);

    check_threads_parity("mean_aggregate", [&](Matrix& out) {
      nn::mean_aggregate(adj, src, inv, out);
    });
    check_threads_parity("mean_aggregate_inner_rows", [&](Matrix& out) {
      out.resize(n_dst, d);
      out.zero();
      nn::mean_aggregate_inner_rows(adj, inner, 20, 160, out);
    });
    check_threads_parity("mean_aggregate_backward_halo", [&](Matrix& dhalo) {
      dhalo.resize(n_src - n_lo, d);
      dhalo.zero();
      nn::mean_aggregate_backward_halo(adj, dout, inv, n_lo, dhalo);
    });
    check_threads_parity("mean_aggregate_backward_inner", [&](Matrix& di) {
      di.resize(n_lo, d);
      di.zero();
      nn::mean_aggregate_backward_inner(adj, dout, inv, n_lo, di);
    });

    nn::HaloIncidence inc;
    inc.build(adj, n_lo);
    std::vector<NodeId> slots;
    for (NodeId s = 0; s < inc.n_halo; s += 2) slots.push_back(s);
    Matrix halo_rows(static_cast<std::int64_t>(slots.size()), d);
    halo_rows.randomize_gaussian(rng, 1.0f);
    const std::span<const float> rows_span(
        halo_rows.data(), static_cast<std::size_t>(halo_rows.size()));
    check_threads_parity("mean_aggregate_halo_fold", [&](Matrix& out) {
      out.resize(n_dst, d);
      out.fill(0.0625f);
      nn::mean_aggregate_halo_fold(inc, slots, rows_span, d, out);
    });
    check_threads_parity("mean_aggregate_finish", [&](Matrix& out) {
      out.resize(n_dst, d);
      out.fill(3.0f);
      nn::mean_aggregate_finish(inv, out);
    });
  }
}

// ---------------------------------------------------------------------------
// ISA dispatch, aggregation: F1, F2a, B1 and B2 run AVX-512F kernels on
// hosts that have them (nn/aggregate_kernels.hpp), and must give the scalar
// kernels' bits by the rule of the GemmDispatch tests above. The grid
// crosses feature widths around the 16-wide vectors, the 64-column lanes
// and the 128-column F1 tile with weighted and unweighted adjacencies and
// the split points n_lo = 0, n_dst / 2, n_dst and n_src, on inputs and
// starting outputs that hold ±0, NaN, ±Inf and subnormals. On a host
// without AVX-512F both sides run the scalar kernel.
// ---------------------------------------------------------------------------

constexpr std::int64_t kAggWidths[] = {1, 15, 16, 17, 63, 64, 65, 100, 128,
                                       130, 200};

/// Replaces about one value in `every` with ±0, NaN, ±Inf or a subnormal.
void sprinkle_specials(float* p, std::size_t n, Rng& rng, std::uint64_t every) {
  using L = std::numeric_limits<float>;
  const float specials[] = {0.0f,           -0.0f,          L::quiet_NaN(),
                            L::infinity(),  -L::infinity(), L::denorm_min(),
                            -L::denorm_min(), 1e-39f};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_u64() % every == 0)
      p[i] = specials[rng.next_u64() % std::size(specials)];
  }
}

Matrix special_matrix(std::int64_t rows, std::int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.randomize_gaussian(rng, 1.0f);
  sprinkle_specials(m.data(), static_cast<std::size_t>(m.size()), rng, 16);
  return m;
}

/// The aggregation fixture: 150 destinations over 200 sources, edge scales
/// (when weighted) with specials of their own, and normalizers 1/degree
/// (0 on zero-degree rows) with a -0.0f, a subnormal and a NaN mixed in.
struct AggGraph {
  static constexpr NodeId kDst = 150, kSrc = 200;
  nn::BipartiteCsr adj;
  std::vector<float> inv;

  AggGraph(bool weighted, Rng& rng)
      : adj(random_adj(rng, kDst, kSrc, weighted)), inv(inv_degrees(adj)) {
    sprinkle_specials(adj.edge_scale.data(), adj.edge_scale.size(), rng, 16);
    inv[3] = -0.0f;
    inv[5] = std::numeric_limits<float>::denorm_min();
    inv[9] = std::numeric_limits<float>::quiet_NaN();
  }
};

/// Runs `scalar` at one lane and `dispatched` at 1 and 3 lanes on copies
/// of `start`, and compares.
template <typename Scalar, typename Dispatched>
void check_agg_dispatch(const Matrix& start, Scalar&& scalar,
                        Dispatched&& dispatched) {
  Matrix want = start;
  common::set_ops_threads(1);
  scalar(want);
  for (const int lanes : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "lanes " << lanes);
    Matrix got = start;
    common::set_ops_threads(lanes);
    dispatched(got);
    common::set_ops_threads(1);
    expect_same_bits_or_both_nan(got, want);
  }
}

/// Calls body(graph, d, n_lo, rng) over the grid, with a trace naming the
/// case.
template <typename Body>
void for_agg_grid(Body&& body) {
  for (const bool weighted : {false, true}) {
    Rng rng(weighted ? 42 : 41);
    const AggGraph g(weighted, rng);
    for (const std::int64_t d : kAggWidths) {
      for (const NodeId n_lo : {NodeId{0}, AggGraph::kDst / 2, AggGraph::kDst,
                                AggGraph::kSrc}) {
        SCOPED_TRACE(::testing::Message() << "weighted " << weighted << ", d "
                                          << d << ", n_lo " << n_lo);
        body(g, d, n_lo, rng);
      }
    }
  }
}

TEST(AggregateDispatch, InnerRowsMatchScalar) {
  for_agg_grid([](const AggGraph& g, std::int64_t d, NodeId n_lo, Rng& rng) {
    const Matrix inner = special_matrix(n_lo, d, rng);
    const Matrix start = special_matrix(AggGraph::kDst, d, rng);
    for (const auto& [r0, r1] : {std::pair<NodeId, NodeId>{0, AggGraph::kDst},
                                 std::pair<NodeId, NodeId>{7, 140}}) {
      SCOPED_TRACE(::testing::Message() << "rows [" << r0 << ", " << r1 << ")");
      check_agg_dispatch(
          start,
          [&](Matrix& out) {
            nn::detail::mean_aggregate_inner_rows_scalar(g.adj, inner, r0, r1,
                                                         out);
          },
          [&](Matrix& out) {
            nn::mean_aggregate_inner_rows(g.adj, inner, r0, r1, out);
          });
    }
  });
}

TEST(AggregateDispatch, HaloFoldMatchesScalar) {
  for_agg_grid([](const AggGraph& g, std::int64_t d, NodeId n_lo, Rng& rng) {
    nn::HaloIncidence inc;
    inc.build(g.adj, n_lo);
    // Every slot once, evens ascending then odds descending: the kernels
    // take slots in the order given.
    std::vector<NodeId> slots;
    for (NodeId s = 0; s < inc.n_halo; s += 2) slots.push_back(s);
    for (NodeId s = inc.n_halo - 1 - inc.n_halo % 2; s > 0; s -= 2)
      slots.push_back(s);
    ASSERT_EQ(static_cast<NodeId>(slots.size()), inc.n_halo);
    const Matrix rows = special_matrix(static_cast<std::int64_t>(slots.size()),
                                       d, rng);
    const std::span<const float> slab(rows.data(),
                                      static_cast<std::size_t>(rows.size()));
    check_agg_dispatch(
        special_matrix(AggGraph::kDst, d, rng),
        [&](Matrix& out) {
          nn::detail::mean_aggregate_halo_fold_scalar(inc, slots, slab, d,
                                                      out);
        },
        [&](Matrix& out) {
          nn::mean_aggregate_halo_fold(inc, slots, slab, d, out);
        });
  });
}

TEST(AggregateDispatch, BackwardHaloMatchesScalar) {
  for_agg_grid([](const AggGraph& g, std::int64_t d, NodeId n_lo, Rng& rng) {
    const Matrix dout = special_matrix(AggGraph::kDst, d, rng);
    check_agg_dispatch(
        special_matrix(AggGraph::kSrc - n_lo, d, rng),
        [&](Matrix& dhalo) {
          nn::detail::mean_aggregate_backward_halo_scalar(g.adj, dout, g.inv,
                                                          n_lo, dhalo);
        },
        [&](Matrix& dhalo) {
          nn::mean_aggregate_backward_halo(g.adj, dout, g.inv, n_lo, dhalo);
        });
  });
}

TEST(AggregateDispatch, BackwardInnerMatchesScalar) {
  for_agg_grid([](const AggGraph& g, std::int64_t d, NodeId n_lo, Rng& rng) {
    const Matrix dout = special_matrix(AggGraph::kDst, d, rng);
    check_agg_dispatch(
        special_matrix(n_lo, d, rng),
        [&](Matrix& dinner) {
          nn::detail::mean_aggregate_backward_inner_scalar(g.adj, dout, g.inv,
                                                           n_lo, dinner);
        },
        [&](Matrix& dinner) {
          nn::mean_aggregate_backward_inner(g.adj, dout, g.inv, n_lo, dinner);
        });
  });
}

/// A random adjacency whose inner block is its own transpose: n_dst inner
/// rows over n_dst + n_halo sources. Inner edges (self-loops included) are
/// stored both ways, each row's inner entries ascend without repeats, halo
/// arcs sit at random positions among them, and rows 5, 16, 27, … have no
/// inner arcs.
nn::BipartiteCsr random_symmetric_adj(Rng& rng, NodeId n_dst, NodeId n_halo) {
  std::vector<std::vector<NodeId>> inner(static_cast<std::size_t>(n_dst));
  for (NodeId k = 0; k < 4 * n_dst; ++k) {
    const auto u = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(n_dst)));
    const auto v = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(n_dst)));
    if (u % 11 == 5 || v % 11 == 5) continue;
    inner[static_cast<std::size_t>(u)].push_back(v);
    inner[static_cast<std::size_t>(v)].push_back(u);
  }
  nn::BipartiteCsr adj;
  adj.n_dst = n_dst;
  adj.n_src = n_dst + n_halo;
  adj.offsets.push_back(0);
  for (auto& row : inner) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    const auto halo_arcs = rng.next_below(4);
    for (std::uint64_t h = 0; h < halo_arcs && n_halo > 0; ++h) {
      const auto at = static_cast<std::ptrdiff_t>(rng.next_below(row.size() + 1));
      row.insert(row.begin() + at,
                 n_dst + static_cast<NodeId>(rng.next_below(
                             static_cast<std::uint64_t>(n_halo))));
    }
    adj.nbrs.insert(adj.nbrs.end(), row.begin(), row.end());
    adj.offsets.push_back(static_cast<EdgeId>(adj.nbrs.size()));
  }
  adj.validate();
  adj.inner_symmetric = nn::inner_block_is_symmetric(adj);
  return adj;
}

/// The normalizers of a symmetric block, with a zero, a -0.0f, a subnormal
/// and a NaN on rows that have arcs: the scatter skips the two zero rows,
/// the gather adds -0.0f for them.
std::vector<float> special_inv_degrees(const nn::BipartiteCsr& adj) {
  auto inv = inv_degrees(adj);
  inv[4] = 0.0f;
  inv[6] = -0.0f;
  inv[8] = std::numeric_limits<float>::denorm_min();
  inv[9] = std::numeric_limits<float>::quiet_NaN();
  return inv;
}

TEST(BackwardInnerGather, MatchesTheScatterOnSymmetricBlocks) {
  // B2 on a flagged, unweighted block runs as F1's gather; the reference
  // is the scalar scatter kernel, at 1 and 3 lanes, on inputs and starting
  // rows with specials (a -0.0f start tells an added +0.0f apart).
  Rng rng(52);
  const auto adj = random_symmetric_adj(rng, 150, 50);
  ASSERT_TRUE(adj.inner_symmetric);
  for (const NodeId v : {4, 6, 8, 9}) ASSERT_GT(adj.degree(v), 0) << v;
  const auto inv = special_inv_degrees(adj);
  for (const std::int64_t d : kAggWidths) {
    SCOPED_TRACE(::testing::Message() << "d " << d);
    const Matrix dout = special_matrix(adj.n_dst, d, rng);
    check_agg_dispatch(
        special_matrix(adj.n_dst, d, rng),
        [&](Matrix& dinner) {
          nn::detail::mean_aggregate_backward_inner_scalar(adj, dout, inv,
                                                           adj.n_dst, dinner);
        },
        [&](Matrix& dinner) {
          nn::mean_aggregate_backward_inner(adj, dout, inv, adj.n_dst, dinner);
        });
  }
  // Every row -0.0f, the gradient too: each term is then -0.0f and leaves
  // its target at -0.0f, so a +0.0f added for a row the scatter skips
  // (w == 0) would show as a flipped sign.
  const Matrix zeros(adj.n_dst, 17, -0.0f);
  check_agg_dispatch(
      zeros,
      [&](Matrix& dinner) {
        nn::detail::mean_aggregate_backward_inner_scalar(adj, zeros, inv,
                                                         adj.n_dst, dinner);
      },
      [&](Matrix& dinner) {
        nn::mean_aggregate_backward_inner(adj, zeros, inv, adj.n_dst, dinner);
      });
}

TEST(BackwardInnerGather, WeightedOrSplitBlocksTakeTheScatter) {
  // The gather covers only an unweighted block with n_lo == n_dst: a
  // weighted block and a narrower inner range keep the scatter's result
  // though the flag is set.
  Rng rng(53);
  auto adj = random_symmetric_adj(rng, 150, 50);
  ASSERT_TRUE(adj.inner_symmetric);
  const auto inv = special_inv_degrees(adj);
  const std::int64_t d = 65;
  const Matrix dout = special_matrix(adj.n_dst, d, rng);
  check_agg_dispatch(
      special_matrix(adj.n_dst / 2, d, rng),
      [&](Matrix& dinner) {
        nn::detail::mean_aggregate_backward_inner_scalar(adj, dout, inv,
                                                         adj.n_dst / 2, dinner);
      },
      [&](Matrix& dinner) {
        nn::mean_aggregate_backward_inner(adj, dout, inv, adj.n_dst / 2,
                                          dinner);
      });
  for (std::size_t e = 0; e < adj.nbrs.size(); ++e)
    adj.edge_scale.push_back(0.5f + static_cast<float>(e % 7) * 0.25f);
  check_agg_dispatch(
      special_matrix(adj.n_dst, d, rng),
      [&](Matrix& dinner) {
        nn::detail::mean_aggregate_backward_inner_scalar(adj, dout, inv,
                                                         adj.n_dst, dinner);
      },
      [&](Matrix& dinner) {
        nn::mean_aggregate_backward_inner(adj, dout, inv, adj.n_dst, dinner);
      });
}

TEST(BackwardInnerGather, FlagOnAnAsymmetricBlockIsCaughtOrGathers) {
  // Drop one inner arc one way and keep the flag: checked builds refuse
  // the call; release builds take the gather, whose result then differs
  // from the scatter's — so the flag, not the graph, picks the path.
  Rng rng(54);
  auto adj = random_symmetric_adj(rng, 60, 10);
  NodeId v = 0;
  while (adj.degree(v) == 0 || adj.neighbors(v)[0] >= adj.n_dst ||
         adj.neighbors(v)[0] == v)
    ++v;
  const auto e = static_cast<std::ptrdiff_t>(
      adj.offsets[static_cast<std::size_t>(v)]);
  adj.nbrs.erase(adj.nbrs.begin() + e);
  for (auto o = static_cast<std::size_t>(v) + 1; o < adj.offsets.size(); ++o)
    --adj.offsets[o];
  adj.validate();
  EXPECT_FALSE(nn::inner_block_is_symmetric(adj));
  ASSERT_TRUE(adj.inner_symmetric);
  const auto inv = inv_degrees(adj);
  Matrix dout(adj.n_dst, 16);
  dout.randomize_gaussian(rng, 1.0f);
  Matrix scattered(adj.n_dst, 16), gathered(adj.n_dst, 16);
  nn::detail::mean_aggregate_backward_inner_scalar(adj, dout, inv, adj.n_dst,
                                                   scattered);
  if constexpr (kCheckedBuild) {
    EXPECT_THROW(nn::mean_aggregate_backward_inner(adj, dout, inv, adj.n_dst,
                                                   gathered),
                 CheckError);
  } else {
    nn::mean_aggregate_backward_inner(adj, dout, inv, adj.n_dst, gathered);
    EXPECT_GT(ops::max_abs_diff(gathered, scattered), 0.0f);
  }
}

TEST(BackwardInnerGather, SymmetryCheckRejectsEachBrokenCondition) {
  Rng rng(55);
  const auto sym = random_symmetric_adj(rng, 40, 8);
  ASSERT_TRUE(nn::inner_block_is_symmetric(sym));
  // The first row with two inner entries other than itself, and the
  // position of the first.
  NodeId v = 0;
  std::size_t first = 0;
  for (;; ++v) {
    std::vector<std::size_t> at;
    for (auto e = static_cast<std::size_t>(sym.offsets[static_cast<std::size_t>(v)]);
         e < static_cast<std::size_t>(sym.offsets[static_cast<std::size_t>(v) + 1]);
         ++e)
      if (sym.nbrs[e] < sym.n_dst && sym.nbrs[e] != v) at.push_back(e);
    if (at.size() >= 2) {
      first = at[0];
      auto swapped = sym; // both inner entries present, out of order
      std::swap(swapped.nbrs[at[0]], swapped.nbrs[at[1]]);
      EXPECT_FALSE(nn::inner_block_is_symmetric(swapped));
      break;
    }
  }
  auto repeated = sym; // an inner entry listed twice in its row only
  repeated.nbrs.insert(repeated.nbrs.begin() + static_cast<std::ptrdiff_t>(first),
                       sym.nbrs[first]);
  for (auto o = static_cast<std::size_t>(v) + 1; o < repeated.offsets.size();
       ++o)
    ++repeated.offsets[o];
  repeated.validate();
  EXPECT_FALSE(nn::inner_block_is_symmetric(repeated));
  auto one_way = sym; // an inner arc with no reverse (a halo arc instead)
  one_way.nbrs[first] = sym.n_dst;
  EXPECT_FALSE(nn::inner_block_is_symmetric(one_way));
  auto halo_moved = sym; // halo entries may sit anywhere in a row
  for (NodeId u = 0; u < sym.n_dst; ++u) {
    auto b = halo_moved.nbrs.begin() + halo_moved.offsets[static_cast<std::size_t>(u)];
    auto e = halo_moved.nbrs.begin() + halo_moved.offsets[static_cast<std::size_t>(u) + 1];
    std::stable_partition(b, e, [&](NodeId s) { return s >= sym.n_dst; });
  }
  EXPECT_TRUE(nn::inner_block_is_symmetric(halo_moved));
}

TEST(AggregateDispatch, MeanAggregateMatchesOnePassDefinition) {
  // mean_aggregate is F1 over every source, then the finish pass. Its
  // reference is the definition in one pass per row: rows with
  // inv_deg == 0 stay zero; every other row sums es * src[u] in adjacency
  // order from zero, then scales by inv_deg.
  for_agg_grid([](const AggGraph& g, std::int64_t d, NodeId n_lo, Rng& rng) {
    if (n_lo != AggGraph::kSrc) return; // n_lo is not a parameter here
    const Matrix src = special_matrix(AggGraph::kSrc, d, rng);
    const bool weighted = !g.adj.edge_scale.empty();
    check_agg_dispatch(
        special_matrix(3, 5, rng), // resized away by both sides
        [&](Matrix& out) {
          out.resize(AggGraph::kDst, d);
          for (NodeId v = 0; v < AggGraph::kDst; ++v) {
            float* o = out.data() + static_cast<std::int64_t>(v) * d;
            const float w = g.inv[static_cast<std::size_t>(v)];
            if (w == 0.0f) continue;
            for (auto e = static_cast<std::size_t>(
                     g.adj.offsets[static_cast<std::size_t>(v)]);
                 e < static_cast<std::size_t>(
                         g.adj.offsets[static_cast<std::size_t>(v) + 1]);
                 ++e) {
              const float es = weighted ? g.adj.edge_scale[e] : 1.0f;
              const float* s =
                  src.data() + static_cast<std::int64_t>(g.adj.nbrs[e]) * d;
              for (std::int64_t c = 0; c < d; ++c) o[c] += es * s[c];
            }
            for (std::int64_t c = 0; c < d; ++c) o[c] *= w;
          }
        },
        [&](Matrix& out) { nn::mean_aggregate(g.adj, src, g.inv, out); });
  });
}

TEST(AggregateDispatch, DoesNotFuse) {
  // The GemmDispatch.DispatchedGemmsDoNotFuse operands: a * a rounds to
  // exactly -c, so c + a * a is +0.0f with two roundings and 2^-24 fused.
  // Every destination v has two arcs, inner source v and halo source
  // kDst + v, so each output row below takes exactly one a * a term; the
  // width covers the 128-column F1 tile, the 64-column lanes and tails.
  const float a = 1.0f + std::ldexp(1.0f, -12);
  const float c = -(1.0f + std::ldexp(1.0f, -11));
  ASSERT_EQ(c + a * a, 0.0f);
  ASSERT_EQ(std::fma(a, a, c), std::ldexp(1.0f, -24));
  constexpr NodeId kDst = 6;
  constexpr std::int64_t d = 130;
  nn::BipartiteCsr adj;
  adj.n_dst = kDst;
  adj.n_src = 2 * kDst;
  adj.offsets.push_back(0);
  for (NodeId v = 0; v < kDst; ++v) {
    adj.nbrs.push_back(v);
    adj.nbrs.push_back(kDst + v);
    adj.offsets.push_back(static_cast<EdgeId>(adj.nbrs.size()));
  }
  adj.validate();
  auto expect_all_plus_zero = [](const Matrix& out, const char* what) {
    for (std::int64_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out.data()[i]), 0u)
          << what << " fused at flat index " << i << ": " << out.data()[i];
  };
  nn::BipartiteCsr weighted = adj;
  weighted.edge_scale.assign(adj.nbrs.size(), a);
  {  // F1, weighted: c + es * s with es = s = a
    const Matrix inner(kDst, d, a);
    Matrix out(kDst, d, c);
    nn::mean_aggregate_inner_rows(weighted, inner, 0, kDst, out);
    expect_all_plus_zero(out, "F1");
  }
  {  // F2a: c + es * row with es = row = a
    nn::HaloIncidence inc;
    inc.build(weighted, kDst);
    std::vector<NodeId> slots(static_cast<std::size_t>(kDst));
    std::iota(slots.begin(), slots.end(), NodeId{0});
    const std::vector<float> rows(static_cast<std::size_t>(kDst * d), a);
    Matrix out(kDst, d, c);
    nn::mean_aggregate_halo_fold(inc, slots, rows, d, out);
    expect_all_plus_zero(out, "F2a");
  }
  // B1/B2: c + wu * g with wu = w = a (unweighted) or w * 1 (weighted).
  nn::BipartiteCsr unit_scaled = adj;
  unit_scaled.edge_scale.assign(adj.nbrs.size(), 1.0f);
  const std::vector<float> inv(static_cast<std::size_t>(kDst), a);
  const Matrix dout(kDst, d, a);
  for (const nn::BipartiteCsr* g : {&adj, &unit_scaled}) {
    Matrix dhalo(kDst, d, c), dinner(kDst, d, c);
    nn::mean_aggregate_backward_halo(*g, dout, inv, kDst, dhalo);
    nn::mean_aggregate_backward_inner(*g, dout, inv, kDst, dinner);
    expect_all_plus_zero(dhalo, g == &adj ? "B1" : "B1 weighted");
    expect_all_plus_zero(dinner, g == &adj ? "B2" : "B2 weighted");
  }
}

// ---------------------------------------------------------------------------
// ISA dispatch, GAT: the attention combine (F2c) runs an AVX-512F kernel on
// hosts that have it and must give the scalar loop's bits by the same rule.
// The grid crosses head widths around the 16-wide vectors and the 64- and
// 128-column tiles with one and two heads (the head's column offset inside
// the output row), over rows with and without neighbours, on weights,
// attention values and starting outputs that hold ±0, NaN, ±Inf and
// subnormals.
// ---------------------------------------------------------------------------

constexpr std::int64_t kGatHeadWidths[] = {1,  15, 16,  17,  47, 63,
                                           64, 65, 100, 128, 130};

TEST(GatDispatch, CombineMatchesScalar) {
  Rng rng(44);
  const nn::BipartiteCsr adj = random_adj(rng, 150, 200, false);
  NodeId isolated = 0;
  for (NodeId v = 0; v < adj.n_dst; ++v) isolated += adj.degree(v) == 0;
  ASSERT_GT(isolated, 0);
  const std::int64_t n_entries = adj.num_edges() + adj.n_dst;
  for (const std::int64_t dh : kGatHeadWidths) {
    for (const int heads : {1, 2}) {
      SCOPED_TRACE(::testing::Message() << "d_head " << dh << ", heads "
                                        << heads);
      const Matrix start = special_matrix(adj.n_dst, heads * dh, rng);
      Matrix want = start, got = start;
      for (int hi = 0; hi < heads; ++hi) {
        const Matrix wh = special_matrix(adj.n_src, dh, rng);
        const Matrix alpha = special_matrix(1, n_entries, rng);
        const std::span<const float> a(alpha.data(),
                                       static_cast<std::size_t>(n_entries));
        nn::detail::gat_combine_scalar(adj, a, wh, hi * dh, want);
        nn::gat_combine(adj, a, wh, hi * dh, got);
      }
      expect_same_bits_or_both_nan(got, want);
    }
  }
}

TEST(GatDispatch, DoesNotFuse) {
  // The GemmDispatch.DispatchedGemmsDoNotFuse operands: a * a rounds to
  // exactly -c, so c + a * a is +0.0f with two roundings and 2^-24 fused.
  // Each row takes exactly one a * a term: as its self term with no arcs,
  // or from its one arc with a 0 weight on the other entry (c + 0 * a and
  // +0 + 0 * a are exact either way). Two heads of widths covering the
  // 128-column tile, the 64-column tile and tails.
  const float a = 1.0f + std::ldexp(1.0f, -12);
  const float c = -(1.0f + std::ldexp(1.0f, -11));
  ASSERT_EQ(c + a * a, 0.0f);
  ASSERT_EQ(std::fma(a, a, c), std::ldexp(1.0f, -24));
  constexpr NodeId kDst = 9;
  nn::BipartiteCsr adj;
  adj.n_dst = kDst;
  adj.n_src = 2 * kDst;
  adj.offsets.push_back(0);
  std::vector<float> alpha;
  for (NodeId v = 0; v < kDst; ++v) {
    switch (v % 3) {
      case 0: // self only
        alpha.push_back(a);
        break;
      case 1: // the arc's term, then a zero-weight self term
        adj.nbrs.push_back(kDst + v);
        alpha.insert(alpha.end(), {a, 0.0f});
        break;
      default: // a zero-weight arc, then the self term
        adj.nbrs.push_back(kDst + v);
        alpha.insert(alpha.end(), {0.0f, a});
        break;
    }
    adj.offsets.push_back(static_cast<EdgeId>(adj.nbrs.size()));
  }
  adj.validate();
  for (const std::int64_t dh : {std::int64_t{47}, std::int64_t{130}}) {
    SCOPED_TRACE(::testing::Message() << "d_head " << dh);
    const Matrix wh(adj.n_src, dh, a);
    Matrix out(kDst, 2 * dh, c);
    nn::gat_combine(adj, alpha, wh, 0, out);
    nn::gat_combine(adj, alpha, wh, dh, out);
    for (std::int64_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out.data()[i]), 0u)
          << "fused at flat index " << i << ": " << out.data()[i];
  }
}

/// The scores fixture: a destination of every degree 0…70 (tails of every
/// length under the 16-wide chunks, whole chunks, and isolated rows),
/// then rows whose sources are drawn from a few values so that their
/// maximum is a zero of either sign, arcs in random order over 300
/// sources.
nn::BipartiteCsr scores_adj(Rng& rng) {
  nn::BipartiteCsr adj;
  adj.n_dst = 71 + 20;
  adj.n_src = 300;
  adj.offsets.push_back(0);
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const NodeId deg = v < 71 ? v : static_cast<NodeId>(rng.next_u64() % 40);
    for (NodeId e = 0; e < deg; ++e)
      adj.nbrs.push_back(static_cast<NodeId>(rng.next_u64() % 300));
    adj.offsets.push_back(static_cast<EdgeId>(adj.nbrs.size()));
  }
  adj.validate();
  return adj;
}

void expect_same_bits_or_both_nan(std::span<const float> got,
                                  std::span<const float> want,
                                  const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(want[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << what << " at entry " << i;
    } else {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << what << " at entry " << i << ": " << got[i] << " vs " << want[i];
    }
  }
}

TEST(GatDispatch, ScoresMatchScalar) {
  Rng rng(45);
  const nn::BipartiteCsr adj = scores_adj(rng);
  const auto n_entries =
      static_cast<std::size_t>(adj.num_edges() + adj.n_dst);
  // Specials: none, one value in 16 and one in 4 (then most rows hold a
  // NaN or an infinity somewhere and come out all NaN).
  for (const std::uint64_t every : {std::uint64_t{0}, std::uint64_t{16},
                                    std::uint64_t{4}}) {
    std::vector<float> s_src(static_cast<std::size_t>(adj.n_src));
    std::vector<float> s_dst(static_cast<std::size_t>(adj.n_dst));
    for (float& x : s_src) x = static_cast<float>(rng.next_gaussian());
    for (float& x : s_dst) x = static_cast<float>(rng.next_gaussian());
    if (every > 0) {
      sprinkle_specials(s_src.data(), s_src.size(), rng, every);
      sprinkle_specials(s_dst.data(), s_dst.size(), rng, every);
    }
    // Sources 0-3 hold +0, -0, -1 and -0: the last 20 rows, which draw
    // from them when `every` is 0, score zeros of both signs and negatives,
    // so their maximum is a zero whose sign depends on the order.
    if (every == 0) {
      s_src[0] = 0.0f;
      s_src[1] = -0.0f;
      s_src[2] = -1.0f;
      s_src[3] = -0.0f;
    }
    nn::BipartiteCsr zeros = adj;
    for (NodeId v = 71; v < adj.n_dst; ++v) {
      s_dst[static_cast<std::size_t>(v)] = v % 2 == 0 ? 0.0f : -0.0f;
      for (EdgeId e = adj.offsets[static_cast<std::size_t>(v)];
           e < adj.offsets[static_cast<std::size_t>(v) + 1]; ++e)
        zeros.nbrs[static_cast<std::size_t>(e)] =
            static_cast<NodeId>(rng.next_u64() % 4);
    }
    for (const bool with_slopes : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "specials every " << every
                                        << ", slopes " << with_slopes);
      std::vector<float> want_a(n_entries), got_a(n_entries, -7.0f);
      std::vector<float> want_s(with_slopes ? n_entries : 0);
      std::vector<float> got_s(with_slopes ? n_entries : 0, -7.0f);
      nn::detail::gat_scores_scalar(zeros, s_src, s_dst, 0.2f, want_a,
                                    want_s);
      nn::gat_scores(zeros, s_src, s_dst, 0.2f, got_a, got_s);
      expect_same_bits_or_both_nan(got_a, want_a, "alpha");
      expect_same_bits_or_both_nan(got_s, want_s, "slope");
    }
  }
}

} // namespace
} // namespace bnsgcn

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

TEST(Ops, GemmNnAlphaBeta) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{2, 3}, {4, 5}};
  Matrix c{{1, 1}, {1, 1}};
  ops::gemm_nn(a, b, c, 2.0f, 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 0), 5.0f);  // 1 + 2*2
  EXPECT_FLOAT_EQ(c.at(1, 1), 11.0f); // 1 + 2*5
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
  ops::axpy(0.5f, b, a);
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

TEST(Ops, GatherRows) {
  Matrix src{{1, 1}, {2, 2}, {3, 3}};
  std::vector<NodeId> idx{2, 0};
  Matrix out;
  ops::gather_rows(src, idx, out);
  EXPECT_EQ(out.rows(), 2);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 1.0f);
}

TEST(Ops, ScatterAddRows) {
  Matrix src{{1, 1}, {2, 2}};
  Matrix dst(3, 2);
  std::vector<NodeId> idx{1, 1};
  ops::scatter_add_rows(src, idx, dst);
  EXPECT_FLOAT_EQ(dst.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(dst.at(0, 0), 0.0f);
}

TEST(Ops, GatherScatterRoundTrip) {
  Rng rng(4);
  Matrix src(10, 5);
  src.randomize_gaussian(rng, 1.0f);
  std::vector<NodeId> idx{0, 3, 7, 9};
  Matrix picked;
  ops::gather_rows(src, idx, picked);
  Matrix back(10, 5);
  ops::scatter_add_rows(picked, idx, back);
  for (const NodeId i : idx)
    for (std::int64_t c = 0; c < 5; ++c)
      EXPECT_FLOAT_EQ(back.at(i, c), src.at(i, c));
}

TEST(Ops, ConcatAndSplitColsRoundTrip) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5}, {6}};
  Matrix cat;
  ops::concat_cols(a, b, cat);
  EXPECT_EQ(cat.cols(), 3);
  EXPECT_FLOAT_EQ(cat.at(1, 2), 6.0f);
  Matrix a2, b2;
  ops::split_cols(cat, a2, b2, 2);
  EXPECT_LT(ops::max_abs_diff(a, a2), 1e-7f);
  EXPECT_LT(ops::max_abs_diff(b, b2), 1e-7f);
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
  check_threads_parity("gemm_nn alpha/beta", [&](Matrix& c) {
    c.resize(201, 17);
    c.fill(0.5f);
    ops::gemm_nn(a, b, c, 0.7f, 2.0f);
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
    ops::gemm_tn(a, b, c, 1.0f, 1.0f);
  });
}

TEST(OpsThreadsParity, GemmNt) {
  Rng rng(15);
  Matrix a(201, 23), b(31, 23);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  check_threads_parity("gemm_nt", [&](Matrix& c) {
    c.resize(201, 31);
    ops::gemm_nt(a, b, c, 0.9f, 0.0f);
  });
}

TEST(OpsThreadsParity, GatherAndScatter) {
  Rng rng(16);
  Matrix src(50, 100);
  src.randomize_gaussian(rng, 1.0f);
  std::vector<NodeId> idx;
  for (int i = 0; i < 333; ++i)
    idx.push_back(static_cast<NodeId>((i * 17 + 3) % 50)); // repeats
  check_threads_parity("gather_rows", [&](Matrix& out) {
    ops::gather_rows(src, idx, out);
  });
  Matrix rows(static_cast<std::int64_t>(idx.size()), 100);
  rows.randomize_gaussian(rng, 1.0f);
  check_threads_parity("scatter_add_rows", [&](Matrix& dst) {
    dst.resize(50, 100);
    dst.fill(0.125f);
    ops::scatter_add_rows(rows, idx, dst);
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

/// Runs `scalar` at one lane and `dispatched` at 1 and 3 lanes on copies of
/// one starting C, for every value mix, alpha and beta, and compares.
template <typename Scalar, typename Dispatched>
void check_dispatch(const Shapes& s, Scalar&& scalar, Dispatched&& dispatched) {
  Rng rng(static_cast<std::uint64_t>(s.a_rows * 1000003 + s.a_cols * 1009 +
                                     s.b_cols * 31 + s.c_cols));
  for (const Mix mix : {Mix::kDense, Mix::kZeros, Mix::kSpecial}) {
    Matrix a(s.a_rows, s.a_cols), b(s.b_rows, s.b_cols);
    fill(a, rng, mix);
    fill(b, rng, mix);
    const Matrix c0 = start_c(s.c_rows, s.c_cols, rng, mix);
    for (const float alpha : {1.0f, 0.5f, -1.25f}) {
      for (const float beta : {0.0f, 1.0f, 0.3f}) {
        Matrix want = c0;
        common::set_ops_threads(1);
        scalar(a, b, want, alpha, beta);
        for (const int lanes : {1, 3}) {
          SCOPED_TRACE(::testing::Message()
                       << "A " << s.a_rows << "x" << s.a_cols << ", mix "
                       << static_cast<int>(mix) << ", alpha " << alpha
                       << ", beta " << beta << ", lanes " << lanes);
          Matrix got = c0;
          common::set_ops_threads(lanes);
          dispatched(a, b, got, alpha, beta);
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
        [&](const Matrix& a, const Matrix& b, Matrix& c, float al, float be) {
          ops::detail::gemm_nn_rows_scalar(a, b, c, 0, s.m, al, be);
        },
        [](const Matrix& a, const Matrix& b, Matrix& c, float al, float be) {
          ops::gemm_nn(a, b, c, al, be);
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
        [&](const Matrix& a, const Matrix& b, Matrix& c, float al, float be) {
          ops::detail::gemm_nn_rows_scalar(a, b, c, r.r0, r.r1, al, be);
        },
        [&](const Matrix& a, const Matrix& b, Matrix& c, float al, float be) {
          ops::gemm_nn_rows(a, b, c, r.r0, r.r1, al, be);
        });
  }
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
        [](const Matrix& a, const Matrix& b, Matrix& c, float al, float be) {
          ops::detail::gemm_tn_scalar(a, b, c, al, be);
        },
        [](const Matrix& a, const Matrix& b, Matrix& c, float al, float be) {
          ops::gemm_tn(a, b, c, al, be);
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
        [](const Matrix& a, const Matrix& b, Matrix& c, float al, float be) {
          ops::detail::gemm_nt_scalar(a, b, c, al, be);
        },
        [](const Matrix& a, const Matrix& b, Matrix& c, float al, float be) {
          ops::gemm_nt(a, b, c, al, be);
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
  {  // gemm_nn, beta = 1: C + (1 * a) * a
    const Matrix x(rows, 1, a), w(1, cols, a);
    Matrix out(rows, cols, c);
    ops::gemm_nn(x, w, out, 1.0f, 1.0f);
    expect_all_plus_zero(out, "gemm_nn");
  }
  {  // gemm_tn, beta = 1: C + (1 * a) * a
    const Matrix x(1, rows, a), g(1, cols, a);
    Matrix out(rows, cols, c);
    ops::gemm_tn(x, g, out, 1.0f, 1.0f);
    expect_all_plus_zero(out, "gemm_tn");
  }
  {  // gemm_nt's sum: (0 + c * 1) + a * a, then 0 + 1 * 0
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
    ops::gemm_nt(x, w, out, 1.0f, 0.0f);
    expect_all_plus_zero(out, "gemm_nt sum");
  }
  {  // gemm_nt's finish: C + alpha * acc with alpha = acc = a
    const Matrix x(rows, 1, a), w(cols, 1, 1.0f);
    Matrix out(rows, cols, c);
    ops::gemm_nt(x, w, out, a, 1.0f);
    expect_all_plus_zero(out, "gemm_nt finish");
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

} // namespace
} // namespace bnsgcn

#include <gtest/gtest.h>

#include "tensor/matrix.hpp"

namespace bnsgcn {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructZeroed) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (std::int64_t r = 0; r < 3; ++r)
    for (std::int64_t c = 0; c < 4; ++c) EXPECT_EQ(m.at(r, c), 0.0f);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(1, 2), 6.0f);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), CheckError);
}

TEST(Matrix, CopyIsDeep) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b = a;
  b.at(0, 0) = 9;
  EXPECT_EQ(a.at(0, 0), 1.0f);
  EXPECT_EQ(b.at(0, 0), 9.0f);
}

TEST(Matrix, MoveTransfersAndEmpties) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b = std::move(a);
  EXPECT_EQ(b.at(1, 1), 4.0f);
  EXPECT_EQ(a.rows(), 0); // NOLINT(bugprone-use-after-move): spec'd behavior
}

TEST(Matrix, RowSpan) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  auto r1 = m.row(1);
  ASSERT_EQ(r1.size(), 3u);
  EXPECT_EQ(r1[0], 4.0f);
  r1[0] = 7.0f;
  EXPECT_EQ(m.at(1, 0), 7.0f);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2);
  m.fill(3.0f);
  EXPECT_EQ(m.at(1, 1), 3.0f);
  m.zero();
  EXPECT_EQ(m.at(1, 1), 0.0f);
}

TEST(Matrix, ResizeDiscards) {
  Matrix m{{1, 2}, {3, 4}};
  m.resize(1, 3);
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.at(0, 0), 0.0f);
}

TEST(Matrix, BytesAccounting) {
  Matrix m(10, 10);
  EXPECT_EQ(m.bytes(), 400);
}

TEST(MemoryTracker, TracksLiveAndPeak) {
  auto& tracker = MemoryTracker::instance();
  tracker.reset_peak();
  const std::int64_t base = tracker.live_bytes();
  {
    Matrix big(1000, 1000);
    EXPECT_GE(tracker.live_bytes(), base + big.bytes());
    EXPECT_GE(tracker.peak_bytes(), base + big.bytes());
  }
  EXPECT_LE(tracker.live_bytes(), base + 16);
  // Peak persists after the free.
  EXPECT_GE(tracker.peak_bytes(), base + 4'000'000);
}

TEST(Matrix, GaussianRandomize) {
  Matrix m(100, 100);
  Rng rng(1);
  m.randomize_gaussian(rng, 2.0f);
  double sum = 0.0, sq = 0.0;
  for (const float v : m.flat()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sq / n, 4.0, 0.2);
}

} // namespace
} // namespace bnsgcn

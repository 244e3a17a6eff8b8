#include "tensor/matrix.hpp"

#include <algorithm>

namespace bnsgcn {

MemoryTracker& MemoryTracker::instance() {
  static MemoryTracker tracker;
  return tracker;
}

void MemoryTracker::on_alloc(std::int64_t bytes) {
  const std::int64_t now = live_.fetch_add(bytes) + bytes;
  std::int64_t prev = peak_.load();
  while (now > prev && !peak_.compare_exchange_weak(prev, now)) {
  }
}

void MemoryTracker::on_free(std::int64_t bytes) { live_.fetch_sub(bytes); }

void MemoryTracker::reset_peak() { peak_.store(live_.load()); }

Matrix::Matrix(std::int64_t rows, std::int64_t cols) : Matrix(rows, cols, 0.0f) {}

Matrix::Matrix(std::int64_t rows, std::int64_t cols, float fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), fill) {
  BNSGCN_CHECK(rows >= 0 && cols >= 0);
  track_alloc();
}

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> rows) {
  rows_ = static_cast<std::int64_t>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<std::int64_t>(rows.begin()->size());
  data_.reserve(static_cast<std::size_t>(rows_ * cols_));
  for (const auto& r : rows) {
    BNSGCN_CHECK_MSG(static_cast<std::int64_t>(r.size()) == cols_,
                     "ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
  track_alloc();
}

Matrix::Matrix(const Matrix& other)
    : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
  track_alloc();
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  track_free();
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = other.data_;
  track_alloc();
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  track_free();
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

Matrix::~Matrix() { track_free(); }

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::int64_t rows, std::int64_t cols) {
  BNSGCN_CHECK(rows >= 0 && cols >= 0);
  track_free();
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<std::size_t>(rows * cols), 0.0f);
  track_alloc();
}

void Matrix::randomize_gaussian(Rng& rng, float stddev) {
  for (auto& v : data_) v = static_cast<float>(rng.next_gaussian()) * stddev;
}

void Matrix::track_alloc() {
  MemoryTracker::instance().on_alloc(
      static_cast<std::int64_t>(data_.capacity() * sizeof(float)));
}

void Matrix::track_free() {
  MemoryTracker::instance().on_free(
      static_cast<std::int64_t>(data_.capacity() * sizeof(float)));
}

} // namespace bnsgcn

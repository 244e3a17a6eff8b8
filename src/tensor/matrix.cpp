#include "tensor/matrix.hpp"

#include <algorithm>

namespace bnsgcn {

Matrix::Matrix(std::int64_t rows, std::int64_t cols) : Matrix(rows, cols, 0.0f) {}

Matrix::Matrix(std::int64_t rows, std::int64_t cols, float fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), fill) {
  BNSGCN_CHECK(rows >= 0 && cols >= 0);
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
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::int64_t rows, std::int64_t cols) {
  BNSGCN_CHECK(rows >= 0 && cols >= 0);
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<std::size_t>(rows * cols), 0.0f);
}

void Matrix::randomize_gaussian(Rng& rng, float stddev) {
  for (auto& v : data_) v = static_cast<float>(rng.next_gaussian()) * stddev;
}

} // namespace bnsgcn

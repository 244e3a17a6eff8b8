#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace bnsgcn {

/// Dense row-major float32 matrix. The single tensor type of this repo:
/// node-feature blocks, weights, gradients and logits are all Matrix.
///
/// Semantics follow the C++ Core Guidelines for a regular type: deep copy,
/// cheap move, value comparison helpers live in ops.hpp.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::int64_t rows, std::int64_t cols);
  Matrix(std::int64_t rows, std::int64_t cols, float fill);
  /// Row-major literal, e.g. Matrix({{1,2},{3,4}}).
  Matrix(std::initializer_list<std::initializer_list<float>> rows);

  Matrix(const Matrix& other) = default;
  Matrix& operator=(const Matrix& other) = default;
  /// Moves leave the source an empty 0×0 matrix.
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix() = default;

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t size() const { return rows_ * cols_; }
  [[nodiscard]] std::int64_t bytes() const {
    return size() * static_cast<std::int64_t>(sizeof(float));
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  [[nodiscard]] float& at(std::int64_t r, std::int64_t c) {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  [[nodiscard]] float at(std::int64_t r, std::int64_t c) const {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  [[nodiscard]] std::span<float> row(std::int64_t r) {
    return {data() + r * cols_, static_cast<std::size_t>(cols_)};
  }
  [[nodiscard]] std::span<const float> row(std::int64_t r) const {
    return {data() + r * cols_, static_cast<std::size_t>(cols_)};
  }

  [[nodiscard]] std::span<float> flat() {
    return {data(), static_cast<std::size_t>(size())};
  }
  [[nodiscard]] std::span<const float> flat() const {
    return {data(), static_cast<std::size_t>(size())};
  }

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Resize discarding contents (every element becomes 0).
  void resize(std::int64_t rows, std::int64_t cols);

  /// Gaussian init with given stddev (Glorot-style helpers in ops.hpp).
  void randomize_gaussian(Rng& rng, float stddev);

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<float> data_;
};

} // namespace bnsgcn

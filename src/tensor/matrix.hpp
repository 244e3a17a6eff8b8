#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <type_traits>
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

  /// resize() only when the shape differs: a matrix that already has the
  /// shape keeps its contents unfilled. For buffers the caller overwrites
  /// element by element.
  void ensure_shape(std::int64_t rows, std::int64_t cols) {
    if (rows != rows_ || cols != cols_) resize(rows, cols);
  }

  /// Gaussian init with given stddev (Glorot-style helpers in ops.hpp).
  void randomize_gaussian(Rng& rng, float stddev);

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<float> data_;
};

/// Non-owning view of a row-major float block: rows() rows of cols()
/// floats, row r at data() + r * stride(). The GEMMs take their operands
/// and outputs as views, so a caller can pass a row range of a larger
/// matrix or a span of a received slab without staging a copy. A Matrix
/// converts to a view of all of it; the view must not outlive it.
template <typename T>
class BasicMatrixView {
  using Owner = std::conditional_t<std::is_const_v<T>, const Matrix, Matrix>;

 public:
  BasicMatrixView(T* data, std::int64_t rows, std::int64_t cols,
                  std::int64_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    BNSGCN_CHECK(rows >= 0 && cols >= 0 && stride >= cols);
  }
  BasicMatrixView(Owner& m)
      : BasicMatrixView(m.data(), m.rows(), m.cols(), m.cols()) {}
  /// A mutable view converts to a read-only one.
  template <typename U>
    requires std::is_same_v<const U, T> && std::is_const_v<T>
  BasicMatrixView(BasicMatrixView<U> v)
      : BasicMatrixView(v.data(), v.rows(), v.cols(), v.stride()) {}

  [[nodiscard]] T* data() const { return data_; }
  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t stride() const { return stride_; }
  [[nodiscard]] T* row(std::int64_t r) const { return data_ + r * stride_; }

  /// Rows [r0, r1) of this view.
  [[nodiscard]] BasicMatrixView row_range(std::int64_t r0,
                                          std::int64_t r1) const {
    BNSGCN_CHECK(0 <= r0 && r0 <= r1 && r1 <= rows_);
    return {data_ + r0 * stride_, r1 - r0, cols_, stride_};
  }

 private:
  T* data_;
  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t stride_;
};

using MatrixView = BasicMatrixView<float>;
using ConstMatrixView = BasicMatrixView<const float>;

} // namespace bnsgcn

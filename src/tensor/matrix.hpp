// Row-major dense matrix, the common currency of the reference encoder,
// the accelerator simulator and the CPU baseline.
//
// Kept deliberately simple (CppCoreGuidelines P.11): owning container +
// cheap spans; numeric kernels live in tensor/ops.hpp. MatrixView is the
// non-owning twin the runtime workspace arena hands out: same accessors,
// storage owned elsewhere (an arena block or a Matrix).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace protea::tensor {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(size_t rows, size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(size_t rows, size_t cols, std::vector<T> data) {
    if (data.size() != rows * cols) {
      throw std::invalid_argument("Matrix::from_rows: size mismatch");
    }
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = std::move(data);
    return m;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<T> row(size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const T> row(size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<T> flat() { return {data_.data(), data_.size()}; }
  std::span<const T> flat() const { return {data_.data(), data_.size()}; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Column slice [col0, col0+ncols) copied into a new matrix.
  Matrix slice_cols(size_t col0, size_t ncols) const {
    if (col0 + ncols > cols_) {
      throw std::out_of_range("Matrix::slice_cols: out of range");
    }
    Matrix out(rows_, ncols);
    for (size_t r = 0; r < rows_; ++r) {
      for (size_t c = 0; c < ncols; ++c) out(r, c) = (*this)(r, col0 + c);
    }
    return out;
  }

  /// Row slice [row0, row0+nrows) copied into a new matrix.
  Matrix slice_rows(size_t row0, size_t nrows) const {
    if (row0 + nrows > rows_) {
      throw std::out_of_range("Matrix::slice_rows: out of range");
    }
    Matrix out(nrows, cols_);
    for (size_t r = 0; r < nrows; ++r) {
      for (size_t c = 0; c < cols_; ++c) out(r, c) = (*this)(row0 + r, c);
    }
    return out;
  }

  bool operator==(const Matrix&) const = default;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixF = Matrix<float>;
using MatrixI8 = Matrix<int8_t>;
using MatrixI32 = Matrix<int32_t>;

/// Non-owning row-major view. `T` may be const-qualified for read-only
/// views; a mutable view and the owning Matrix convert implicitly.
template <typename T>
class MatrixView {
 public:
  using value_type = std::remove_const_t<T>;

  MatrixView() = default;

  MatrixView(T* data, size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(data) {}

  MatrixView(Matrix<value_type>& m)  // NOLINT(google-explicit-constructor)
    requires(!std::is_const_v<T>)
      : MatrixView(m.data(), m.rows(), m.cols()) {}

  MatrixView(const Matrix<value_type>& m)  // NOLINT
    requires(std::is_const_v<T>)
      : MatrixView(m.data(), m.rows(), m.cols()) {}

  template <typename U>
    requires(std::is_const_v<T> && std::is_same_v<U, value_type>)
  MatrixView(MatrixView<U> other)  // NOLINT(google-explicit-constructor)
      : MatrixView(other.data(), other.rows(), other.cols()) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  T& operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<T> row(size_t r) const {
    assert(r < rows_);
    return {data_ + r * cols_, cols_};
  }

  std::span<T> flat() const { return {data_, rows_ * cols_}; }
  T* data() const { return data_; }

  void fill(value_type value) const
    requires(!std::is_const_v<T>)
  {
    std::fill(data_, data_ + rows_ * cols_, value);
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  T* data_ = nullptr;
};

using MatrixViewF = MatrixView<float>;
using MatrixViewI8 = MatrixView<int8_t>;
using MatrixViewI32 = MatrixView<int32_t>;
using ConstMatrixViewF = MatrixView<const float>;
using ConstMatrixViewI8 = MatrixView<const int8_t>;
using ConstMatrixViewI32 = MatrixView<const int32_t>;

/// One run of consecutive rows of a block-strided int8 operand: `rows`
/// (>= 1; the span GEMMs reject empty runs) rows starting at `base`. Row
/// geometry (element count and stride) is shared across runs and lives on
/// the RowSpanListI8 that owns the run.
struct RowSpanI8 {
  const int8_t* base = nullptr;
  size_t rows = 0;
};

/// A logical (rows x cols) int8 matrix stored as a sequence of row runs —
/// the read view a paged KV block table exposes without gathering into
/// contiguous scratch. Each row is `cols` contiguous elements; consecutive
/// rows within a run are `row_stride` elements apart (>= cols, so rows of
/// a wider record — e.g. a pooled KV token row — can be viewed in place).
struct RowSpanListI8 {
  std::span<const RowSpanI8> runs;
  size_t rows = 0;        // total rows across all runs
  size_t cols = 0;        // elements per row
  size_t row_stride = 0;  // elements between consecutive rows in a run
  /// Optional 256-entry dequant table: when set, the spanned bytes are
  /// stored codes (e.g. fp8) and every element reads as
  /// `decode[uint8_t(byte)]`. The GEMM pack stage applies it while
  /// packing, fusing dequant into the one pass that already touches
  /// each byte; nullptr means the bytes ARE int8 values.
  const int8_t* decode = nullptr;
};

/// Deep copy of a view into a fresh owning Matrix (trace capture).
template <typename T>
Matrix<std::remove_const_t<T>> to_matrix(MatrixView<T> view) {
  Matrix<std::remove_const_t<T>> out(view.rows(), view.cols());
  std::copy(view.data(), view.data() + view.size(), out.data());
  return out;
}

}  // namespace protea::tensor

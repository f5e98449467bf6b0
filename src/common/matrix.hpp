// Minimal dense row-major matrix used for feature tables and the LSTM.
//
// This is intentionally a small value type, not a linear-algebra library:
// the models in `leaf::models` only need contiguous row access, transpose,
// and a few elementwise helpers.  Bounds are asserted in debug builds.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace leaf {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous view of one row.
  std::span<double> row(std::size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Copy of one column (columns are strided in the row-major storage, so
  /// no span over `data_` is possible).
  std::vector<double> col(std::size_t c) const;

  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }

  /// Appends a row; the first appended row fixes the column count for an
  /// empty matrix.
  void append_row(std::span<const double> values);

  /// New matrix containing the given rows, in order.
  Matrix gather_rows(std::span<const std::size_t> indices) const;

  Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace leaf

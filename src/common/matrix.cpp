#include "common/matrix.hpp"

#include <algorithm>

namespace leaf {

std::vector<double> Matrix::col(std::size_t c) const {
  assert(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::append_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) cols_ = values.size();
  assert(values.size() == cols_);
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

Matrix Matrix::gather_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    assert(indices[i] < rows_);
    const auto src = row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

}  // namespace leaf

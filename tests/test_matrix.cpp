// Unit tests for the dense matrix (common/matrix.hpp).
#include "common/matrix.hpp"

#include <gtest/gtest.h>

namespace leaf {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(Matrix, ElementAccess) {
  Matrix m(2, 2);
  m(0, 1) = 7.0;
  m(1, 0) = -3.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 0), -3.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, RowSpanIsContiguousView) {
  Matrix m(2, 3);
  m(1, 0) = 1.0;
  m(1, 1) = 2.0;
  m(1, 2) = 3.0;
  const auto row = m.row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
  EXPECT_DOUBLE_EQ(row[2], 3.0);
  // Mutating through the span mutates the matrix.
  m.row(1)[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

TEST(Matrix, ColCopies) {
  Matrix m(3, 2);
  for (std::size_t r = 0; r < 3; ++r) m(r, 1) = static_cast<double>(r);
  const auto col = m.col(1);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col[2], 2.0);
}

TEST(Matrix, AppendRowToEmptyFixesCols) {
  Matrix m;
  const std::vector<double> row = {1.0, 2.0};
  m.append_row(row);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 2u);
  m.append_row(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, GatherRows) {
  Matrix m(4, 1);
  for (std::size_t r = 0; r < 4; ++r) m(r, 0) = static_cast<double>(r);
  const std::vector<std::size_t> idx = {3, 1, 1};
  const Matrix g = m.gather_rows(idx);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_DOUBLE_EQ(g(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g(2, 0), 1.0);
}

TEST(Matrix, Transposed) {
  Matrix m(2, 3);
  m(0, 2) = 5.0;
  m(1, 0) = -2.0;
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(0, 1), -2.0);
}

TEST(Matrix, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

}  // namespace
}  // namespace leaf

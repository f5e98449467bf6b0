// Column sweeps: a model's predictions of one fixed input with one column
// replaced at a time — the inner loop of permutation importance
// (explain/importance.hpp), which asks for every column in turn.
#pragma once

#include <cstddef>
#include <span>

namespace leaf::models {

/// Predictions of a fixed input X as they are, and as they would be with
/// column c of X replaced by other values.  Made by
/// Regressor::column_sweep(X), which may index X up front; every call
/// reads X and the model, so both must outlive the sweep and stay
/// unchanged.  One sweep is not safe to call from two threads at once.
class ColumnSweep {
 public:
  ColumnSweep() = default;
  ColumnSweep(const ColumnSweep&) = delete;
  ColumnSweep& operator=(const ColumnSweep&) = delete;
  virtual ~ColumnSweep() = default;

  /// The model's predictions of X, bit-identical to predict_into(X).
  virtual std::span<const double> base() const = 0;

  /// out[r] = the model's prediction of row r of X with X(r, c) replaced
  /// by values[r], bit-identical to predict_into on that matrix.
  /// Requires c < X.cols() and values.size() == out.size() == X.rows().
  virtual void predict(std::size_t c, std::span<const double> values,
                       std::span<double> out) = 0;
};

}  // namespace leaf::models

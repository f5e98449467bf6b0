#include "models/regressor.hpp"

#include <cassert>

#include "obs/metrics.hpp"
#include "par/parallel.hpp"

namespace leaf::models {

void Regressor::predict_into(const Matrix& X, std::span<double> out) const {
  assert(out.size() == X.rows());
  LEAF_SPAN("predict.batch");
  static obs::Counter& rows_ctr =
      obs::MetricsRegistry::global().counter("leaf_predict_rows_total");
  rows_ctr.inc(X.rows());
  // Per-row parallelism (KNN's distance scans dominate here); per-row
  // outputs land in per-row slots, so thread count cannot affect results.
  // Tiny batches stay serial — dispatch would outweigh the work.
  if (X.rows() < 32) {
    for (std::size_t r = 0; r < X.rows(); ++r) out[r] = predict_one(X.row(r));
    return;
  }
  par::parallel_for(X.rows(),
                    [&](std::size_t r) { out[r] = predict_one(X.row(r)); });
}

std::vector<double> Regressor::predict(const Matrix& X) const {
  std::vector<double> out(X.rows());
  predict_into(X, out);
  return out;
}

namespace {

/// The model-agnostic sweep: one full predict_into per call, on a copy of
/// X whose column c holds the call's values until the call returns.
class CopySweep final : public ColumnSweep {
 public:
  CopySweep(const Regressor& model, const Matrix& X)
      : model_(model), X_(X), scratch_(X), base_(model.predict(X)) {}

  std::span<const double> base() const override { return base_; }

  void predict(std::size_t c, std::span<const double> values,
               std::span<double> out) override {
    assert(c < X_.cols() && values.size() == X_.rows());
    for (std::size_t r = 0; r < X_.rows(); ++r) scratch_(r, c) = values[r];
    model_.predict_into(scratch_, out);
    for (std::size_t r = 0; r < X_.rows(); ++r) scratch_(r, c) = X_(r, c);
  }

 private:
  const Regressor& model_;
  const Matrix& X_;
  Matrix scratch_;
  std::vector<double> base_;
};

}  // namespace

std::unique_ptr<ColumnSweep> Regressor::column_sweep(const Matrix& X) const {
  return std::make_unique<CopySweep>(*this, X);
}

std::string Regressor::serial_key() const {
  throw io::SnapshotError("model '" + name() + "' does not support snapshots");
}

void Regressor::save(io::Serializer& out) const {
  (void)out;
  throw io::SnapshotError("model '" + name() + "' does not support snapshots");
}

bool check_fit_args(const Matrix& X, std::span<const double> y,
                    std::span<const double> w) {
  assert(X.rows() == y.size());
  assert(w.empty() || w.size() == y.size());
  if (X.rows() != y.size()) return false;
  if (!w.empty() && w.size() != y.size()) return false;
  return X.rows() > 0;
}

}  // namespace leaf::models

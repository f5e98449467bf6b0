// Persistence (scaled last-value) forecaster.
//
// Naming note: persistence here is the forecasting-literature term for
// the carry-the-last-value-forward baseline — it has nothing to do with
// saving state to disk.  Model/detector/scheme *persistence* in the
// storage sense lives in `leaf::io` (src/io/snapshot.hpp); this class is
// just another Regressor, and one without a snapshot codec, since no
// fleet shard runs it.
//
// The trivial baseline every forecasting study should be measured against:
// predict the target 180 days ahead as the target's *current* value times
// a single fitted growth ratio.  fit() estimates that ratio as the
// weighted mean of y / x_target over the training pairs; predict() reads
// the target's history column and scales it.  Any learned model that
// cannot beat this is not learning anything beyond the trend.
#pragma once

#include <memory>

#include "models/regressor.hpp"

namespace leaf::models {

class Persistence final : public Regressor {
 public:
  /// `target_column` is the feature column holding the target KPI's own
  /// history (column 0..5 for the six targets; see data::Featurizer).
  explicit Persistence(int target_column);

  void fit(const Matrix& X, std::span<const double> y,
           std::span<const double> w = {}) override;
  double predict_one(std::span<const double> x) const override;
  std::unique_ptr<Regressor> clone_untrained() const override;
  std::string name() const override { return "Persistence"; }
  bool trained() const override { return trained_; }

  double ratio() const { return ratio_; }

 private:
  int target_column_;
  bool trained_ = false;
  double ratio_ = 1.0;
  double fallback_ = 0.0;  ///< mean target, used when history is ~0
};

}  // namespace leaf::models

// Featurization of the KPI logs into the paper's forecasting task (§2.2):
// from "all available KPIs and dates (as features) up to a given day",
// forecast a target KPI 180 days in the future, with one model serving
// every eNodeB.
//
// A supervised pair is (X at feature-day d, y at day d+H): the feature
// vector holds the eNodeB's full KPI log of day d plus encoded temporal
// features (day-of-week / day-of-year phases, elapsed years — the
// "temporal features (e.g., time stamps, day of the week, month, year)"
// of §3.1) and the site's area type.
#pragma once

#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "data/dataset.hpp"

namespace leaf::data {

/// A materialized set of supervised pairs.
struct SupervisedSet {
  Matrix X;                     ///< one row per pair
  std::vector<double> y;        ///< target KPI at day d+H
  std::vector<int> feature_day; ///< d, per row
  std::vector<int> target_day;  ///< d+H, per row
  std::vector<int> enb;         ///< eNodeB profile index, per row

  std::size_t size() const { return y.size(); }
  bool empty() const { return y.empty(); }

  /// Appends all rows of `other` (same column layout required).
  void append(const SupervisedSet& other);
  /// New set with only the given rows.
  SupervisedSet subset(std::span<const std::size_t> rows) const;
};

/// Builds supervised pairs for one (dataset, target KPI, horizon).
class Featurizer {
 public:
  /// The paper's horizon is 180 days (capacity planning lead time).
  Featurizer(const CellularDataset& ds, TargetKpi target, int horizon = 180);

  const CellularDataset& dataset() const { return *ds_; }
  TargetKpi target() const { return target_; }
  int horizon() const { return horizon_; }

  int num_features() const;
  const std::vector<std::string>& feature_names() const { return names_; }
  /// Columns [0, num_kpi_features) are raw KPI columns (schema order);
  /// the rest are temporal / area encodings.
  int num_kpi_features() const;

  /// Pairs whose *feature* day lies in [first, last] (inclusive).  Only
  /// eNodeBs reporting on both d and d+H yield pairs.
  SupervisedSet window(int first_feature_day, int last_feature_day) const;

  /// Pairs whose *target* day is exactly `day` — the per-date test sets
  /// of §3.2 ("we test these models on data subsets split by date"):
  /// window(day - horizon, day - horizon).
  SupervisedSet at_target_day(int day) const;

  /// The pair window() builds for eNodeB `enb` on `feature_day`: its
  /// feature vector into `x` (num_features() wide) and its target into
  /// `y`, bit-identical to that window() row.  Returns false, writing
  /// nothing, when no such pair exists: the feature day lies outside
  /// [0, num_days - 1 - horizon], or `enb` does not report on the feature
  /// day or on the target day.
  bool row(int feature_day, int enb, std::span<double> x, double& y) const;

  /// max - min of the target over the full dataset: the NRMSE normalizer
  /// (§2.3 "we normalize the RMSE by maxmin").
  double norm_range() const { return norm_range_; }

 private:
  void fill_row(int day, int day_row, int enb_profile_idx,
                std::span<double> out) const;
  double target_at(int target_day, int day_row) const;

  const CellularDataset* ds_;
  TargetKpi target_;
  int target_col_;
  int horizon_;
  double norm_range_;
  std::vector<std::string> names_;
};

/// Per-column standardizer (z-score) for distance- and gradient-based
/// models (KNN, LSTM, Ridge).  Constant columns map to 0.
class Standardizer {
 public:
  void fit(const Matrix& X);
  Matrix transform(const Matrix& X) const;
  void transform_row(std::span<const double> in, std::span<double> out) const;
  /// Reinstates previously fitted moments (snapshot restore, leaf::io).
  /// The vectors must have equal length.
  void restore(std::vector<double> mean, std::vector<double> stddev);
  bool fitted() const { return !mean_.empty(); }
  std::span<const double> mean() const { return mean_; }
  std::span<const double> stddev() const { return std_; }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace leaf::data

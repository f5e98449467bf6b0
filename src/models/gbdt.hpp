// Gradient-boosted decision trees — the stand-in for the paper's boosting
// family (CatBoost, LightGBM, LightGBMXT, XGBoost; §3.1).
//
// Squared-loss boosting on histogram trees with shrinkage, row
// subsampling, and per-split feature subsampling.  Two stock
// configurations mirror the two boosting libraries the paper leans on:
// `GbdtConfig::catboost_like()` (symmetric-ish shallow trees, moderate
// shrinkage) and `GbdtConfig::lightgbm_like()` (deeper trees, stronger
// feature subsampling).
#pragma once

#include <memory>

#include "models/regressor.hpp"
#include "models/tree.hpp"

namespace leaf::models {

struct GbdtConfig {
  int num_trees = 100;
  double learning_rate = 0.1;
  double row_subsample = 0.8;  ///< fraction of rows per boosting round
  TreeConfig tree;
  std::uint64_t seed = 1;

  static GbdtConfig catboost_like(int num_trees, std::uint64_t seed);
  static GbdtConfig lightgbm_like(int num_trees, std::uint64_t seed);
};

class Gbdt final : public Regressor {
 public:
  explicit Gbdt(GbdtConfig cfg, std::string display_name = "GBDT");

  void fit(const Matrix& X, std::span<const double> y,
           std::span<const double> w = {}) override;
  double predict_one(std::span<const double> x) const override;
  void predict_into(const Matrix& X, std::span<double> out) const override;
  std::unique_ptr<ColumnSweep> column_sweep(const Matrix& X) const override;
  std::unique_ptr<Regressor> clone_untrained() const override;
  std::string name() const override { return name_; }
  bool trained() const override { return trained_; }
  void attach_caches(FitCaches* caches) override { caches_ = caches; }

  const GbdtConfig& config() const { return cfg_; }
  std::size_t tree_count() const { return trees_.tree_count(); }
  /// The fitted trees; a prediction is base() + lr*t0 + lr*t1 + ...
  const FlatTrees& trees() const { return trees_; }
  double base() const { return base_; }

  std::string serial_key() const override { return "gbdt"; }
  void save(io::Serializer& out) const override;
  static std::unique_ptr<Gbdt> load(io::Deserializer& in);

 private:
  GbdtConfig cfg_;
  std::string name_;
  bool trained_ = false;
  double base_ = 0.0;
  FitCaches* caches_ = nullptr;
  FlatTrees trees_;
};

}  // namespace leaf::models

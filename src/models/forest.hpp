// Bagging ensembles — the paper's second model family (§3.1):
// Random Forest (bootstrap rows + per-split feature subsets) and
// Extra Trees (no bootstrap, random split thresholds; Geurts et al. 2006).
#pragma once

#include <memory>

#include "models/regressor.hpp"
#include "models/tree.hpp"

namespace leaf::models {

struct ForestConfig {
  int num_trees = 100;
  /// Features considered per split; 0 resolves to ceil(sqrt(F)) * 2.
  int features_per_split = 0;
  int max_depth = 14;
  int min_samples_leaf = 2;
  /// true => Random Forest bootstrap; false => Extra-Trees full sample.
  bool bootstrap = true;
  /// true => random thresholds (Extra Trees).
  bool random_thresholds = false;
  std::uint64_t seed = 1;

  static ForestConfig random_forest(int num_trees, std::uint64_t seed);
  static ForestConfig extra_trees(int num_trees, std::uint64_t seed);
};

class Forest final : public Regressor {
 public:
  explicit Forest(ForestConfig cfg, std::string display_name);

  void fit(const Matrix& X, std::span<const double> y,
           std::span<const double> w = {}) override;
  double predict_one(std::span<const double> x) const override;
  void predict_into(const Matrix& X, std::span<double> out) const override;
  std::unique_ptr<ColumnSweep> column_sweep(const Matrix& X) const override;
  std::unique_ptr<Regressor> clone_untrained() const override;
  std::string name() const override { return name_; }
  bool trained() const override { return trained_; }
  void attach_caches(FitCaches* caches) override { caches_ = caches; }

  std::size_t tree_count() const { return trees_.tree_count(); }
  /// The fitted trees; a prediction is (t0 + t1 + ...) / tree_count().
  const FlatTrees& trees() const { return trees_; }

  std::string serial_key() const override { return "forest"; }
  void save(io::Serializer& out) const override;
  static std::unique_ptr<Forest> load(io::Deserializer& in);

 private:
  ForestConfig cfg_;
  std::string name_;
  bool trained_ = false;
  FitCaches* caches_ = nullptr;
  FlatTrees trees_;
};

}  // namespace leaf::models

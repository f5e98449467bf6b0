// K-nearest-neighbours regressor — the paper's distance-based family
// (§3.1).  A lazy learner that memorizes the standardized training set and
// predicts an inverse-distance-weighted mean of the k nearest targets;
// §6.2 explains why exactly this memorization makes KNN respond poorly to
// LEAF's targeted over-sampling, which this implementation reproduces.
#pragma once

#include <memory>

#include "data/features.hpp"
#include "models/regressor.hpp"

namespace leaf::models {

struct KnnConfig {
  int k = 5;
  /// Shrinks distances toward 0 get capped by this epsilon so exact
  /// matches don't produce infinite weights.
  double min_distance = 1e-9;
};

class Knn final : public Regressor {
 public:
  explicit Knn(KnnConfig cfg = {});

  void fit(const Matrix& X, std::span<const double> y,
           std::span<const double> w = {}) override;
  double predict_one(std::span<const double> x) const override;
  std::unique_ptr<Regressor> clone_untrained() const override;
  std::string name() const override { return "KNeighbors"; }
  bool trained() const override { return trained_; }

  std::string serial_key() const override { return "knn"; }
  void save(io::Serializer& out) const override;
  static std::unique_ptr<Knn> load(io::Deserializer& in);

 private:
  KnnConfig cfg_;
  bool trained_ = false;
  data::Standardizer scaler_;
  /// Standardized training set, transposed: row f holds feature f of every
  /// training sample — the column-major layout simd::l2_distances_cols
  /// scans.  Snapshots store it untransposed.
  Matrix train_cols_;
  std::vector<double> y_;
  std::vector<double> w_;
};

}  // namespace leaf::models

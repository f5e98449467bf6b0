// Weighted model ensemble.
//
// Used by the Accuracy-Updated-Ensemble (AUE2) mitigation baseline
// (Brzeziński & Stefanowski 2011/2013, the paper's reference [11, 12]):
// sub-models trained on consecutive data chunks vote with weights derived
// from their accuracy on the newest chunk.  Members are shared so the
// ensemble can be cheaply rebuilt every chunk without re-fitting old
// members.  There is no snapshot codec: AUE2 itself refuses snapshots, so
// no fleet snapshot can hold an ensemble.
#pragma once

#include <memory>
#include <vector>

#include "models/regressor.hpp"

namespace leaf::models {

class WeightedEnsemble final : public Regressor {
 public:
  WeightedEnsemble() = default;

  /// Adds a trained member; weights are normalized at prediction time.
  void add_member(std::shared_ptr<const Regressor> member, double weight);

  std::size_t size() const { return members_.size(); }
  double weight(std::size_t i) const { return weights_[i]; }

  /// fit() is unsupported — members are trained individually by the
  /// owning scheme.  Calling it leaves the ensemble unchanged.
  void fit(const Matrix&, std::span<const double>,
           std::span<const double> = {}) override {}
  double predict_one(std::span<const double> x) const override;
  std::unique_ptr<Regressor> clone_untrained() const override;
  std::string name() const override { return "WeightedEnsemble"; }
  bool trained() const override { return !members_.empty(); }

 private:
  std::vector<std::shared_ptr<const Regressor>> members_;
  std::vector<double> weights_;
};

}  // namespace leaf::models

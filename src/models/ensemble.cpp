#include "models/ensemble.hpp"

#include <cassert>

namespace leaf::models {

void WeightedEnsemble::add_member(std::shared_ptr<const Regressor> member,
                                  double weight) {
  assert(member != nullptr && member->trained());
  assert(weight >= 0.0);
  members_.push_back(std::move(member));
  weights_.push_back(weight);
}

double WeightedEnsemble::predict_one(std::span<const double> x) const {
  assert(trained());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    num += weights_[i] * members_[i]->predict_one(x);
    den += weights_[i];
  }
  if (den <= 0.0) {
    // All-zero weights degrade to a plain average.
    for (const auto& m : members_) num += m->predict_one(x);
    return num / static_cast<double>(members_.size());
  }
  return num / den;
}

std::unique_ptr<Regressor> WeightedEnsemble::clone_untrained() const {
  return std::make_unique<WeightedEnsemble>();
}

}  // namespace leaf::models

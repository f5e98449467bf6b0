#include "models/ensemble.hpp"

#include <cassert>

#include "models/factory.hpp"

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

void WeightedEnsemble::save(io::Serializer& out) const {
  out.put_u64(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    out.put_f64(weights_[i]);
    save_regressor(out, *members_[i]);
  }
}

std::unique_ptr<WeightedEnsemble> WeightedEnsemble::load(io::Deserializer& in) {
  const std::size_t count = in.get_count(8 + 8);  // weight + key length word
  auto ensemble = std::make_unique<WeightedEnsemble>();
  for (std::size_t i = 0; i < count; ++i) {
    const double weight = in.get_f64();
    if (!(weight >= 0.0))  // negative or NaN
      throw io::SnapshotError("ensemble member weight is negative or NaN");
    std::unique_ptr<Regressor> member = load_regressor(in);
    if (!member->trained())
      throw io::SnapshotError("ensemble member '" + member->name() +
                              "' is untrained");
    ensemble->add_member(std::move(member), weight);
  }
  return ensemble;
}

}  // namespace leaf::models

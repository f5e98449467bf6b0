#include "models/persistence.hpp"

#include <cassert>
#include <cmath>

namespace leaf::models {

Persistence::Persistence(int target_column) : target_column_(target_column) {
  assert(target_column_ >= 0);
}

void Persistence::fit(const Matrix& X, std::span<const double> y,
                      std::span<const double> w) {
  trained_ = false;
  if (!check_fit_args(X, y, w)) return;
  assert(static_cast<std::size_t>(target_column_) < X.cols());

  double num = 0.0, den = 0.0, y_sum = 0.0, w_sum = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double wi = w.empty() ? 1.0 : w[i];
    const double x = X(i, static_cast<std::size_t>(target_column_));
    y_sum += wi * y[i];
    w_sum += wi;
    if (std::abs(x) < 1e-12) continue;  // lost / zero readings
    num += wi * y[i];
    den += wi * x;
  }
  ratio_ = den != 0.0 ? num / den : 1.0;
  fallback_ = w_sum > 0.0 ? y_sum / w_sum : 0.0;
  trained_ = true;
}

double Persistence::predict_one(std::span<const double> x) const {
  assert(trained_);
  const double current = x[static_cast<std::size_t>(target_column_)];
  if (std::abs(current) < 1e-12) return fallback_;
  return ratio_ * current;
}

std::unique_ptr<Regressor> Persistence::clone_untrained() const {
  return std::make_unique<Persistence>(target_column_);
}

}  // namespace leaf::models

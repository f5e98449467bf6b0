#include "drift/detector.hpp"

#include <cmath>

namespace leaf::drift {

EwmaBinarizer::EwmaBinarizer(double alpha, double k) : alpha_(alpha), k_(k) {}

bool EwmaBinarizer::push(double value) {
  if (!primed_) {
    primed_ = true;
    mean_ = value;
    var_ = 0.0;
    return false;
  }
  const double deviation = value - mean_;
  const bool flagged = deviation > k_ * std::sqrt(var_) && var_ > 0.0;
  // Update after testing so a spike doesn't mask itself.
  mean_ += alpha_ * deviation;
  var_ = (1.0 - alpha_) * (var_ + alpha_ * deviation * deviation);
  return flagged;
}

void EwmaBinarizer::reset() {
  primed_ = false;
  mean_ = 0.0;
  var_ = 0.0;
}

}  // namespace leaf::drift

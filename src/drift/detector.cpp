#include "drift/detector.hpp"

#include <cmath>
#include <span>

namespace leaf::drift {

std::vector<std::size_t> detect_all(DriftDetector& detector,
                                    std::span<const double> series) {
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < series.size(); ++i)
    if (detector.update(series[i])) hits.push_back(i);
  return hits;
}

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
